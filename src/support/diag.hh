/**
 * @file
 * Structured, recoverable diagnostics.
 *
 * The original error story was gem5-style: user errors call fatal()
 * and the process exits.  That is fine for a one-shot CLI but fatal
 * for the sweep engine, where one malformed MT program or trapping
 * cell must not take down the other few thousand cells.  This file is
 * the containment layer:
 *
 *  - Diag           one diagnostic: severity, a *stable* error code,
 *                   a message, and a file:line:col source location.
 *  - DiagEngine     collects diagnostics during a phase (the lexer,
 *                   parser and codegen all report here), with an
 *                   error limit so pathological inputs cannot produce
 *                   unbounded output.
 *  - Result<T>      value-or-diagnostics return type for checked
 *                   entry points (parseProgramChecked,
 *                   compileToIrChecked, compileWorkloadChecked).
 *  - DiagException  the exception form, for crossing layers that
 *                   cannot return Result (CompileCache futures, sweep
 *                   cells).  Carries the full diagnostic list.
 *
 * fatal() remains, but only as a thin wrapper at the CLI edge: the
 * legacy unchecked entry points format the collected diagnostics and
 * hand them to SS_FATAL.  Library code below the CLI never exits.
 *
 * Error codes are stable strings ("E0201"), grouped by layer:
 *   E01xx lexical   E02xx parse     E03xx semantic/codegen
 *   E04xx traps     E05xx compile limits   E09xx generic
 * They appear in diagnostics, sweep cell errors, and JSON output;
 * tests and downstream tooling key on them, so codes are append-only.
 */

#ifndef SUPERSYM_SUPPORT_DIAG_HH
#define SUPERSYM_SUPPORT_DIAG_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ilp {

enum class Severity
{
    Note,
    Warning,
    Error,
};

/** Stable error codes; see the header comment for the numbering. */
enum class ErrCode
{
    None = 0,

    // Lexical (E01xx).
    LexUnexpectedChar,
    LexUnterminatedComment,
    LexIntLiteralOutOfRange,
    LexRealLiteralOutOfRange,
    LexStrayDot,

    // Parse (E02xx).
    ParseUnexpectedToken,
    ParseBadTopLevel,
    ParseBadArraySize,
    ParseBadInitializer,
    ParseLocalArray,
    ParseForStepVariable,
    ParseTooManyErrors,

    // Semantic / codegen (E03xx).
    SemaRedeclaration,
    SemaUndefined,
    SemaTypeMismatch,
    SemaBadCall,
    SemaBreakOutsideLoop,
    SemaBadLoopVariable,
    SemaBadReturn,

    // Simulator traps (E04xx).
    TrapDivideByZero,
    TrapOutOfBoundsMemory,
    TrapMisalignedMemory,
    TrapBadJump,
    TrapFuelExhausted,
    TrapStackOverflow,
    TrapCallDepthExceeded,
    TrapNoEntry,
    TrapTransientFault,
    TrapDeadlineExceeded,

    // Compile-environment limits (E05xx).
    OptTempRegsExhausted,
    BytecodeLoweringFailed,

    // Generic (E09xx).
    IoError,
    JsonParseError,
    ResourceExhausted,
    Internal,
};

/** The stable wire id, e.g. "E0201". */
const char *errCodeId(ErrCode code);

/** A short kebab-case name, e.g. "parse-unexpected-token". */
const char *errCodeName(ErrCode code);

/**
 * Transient errors are environmental — a resource shortage or an
 * injected/worker fault that a retry of the *same* deterministic
 * computation may not hit again.  Everything else (malformed input,
 * genuine simulator traps, deadline expiry of a deterministic run) is
 * permanent: retrying reproduces it exactly, so hardened sweeps
 * quarantine instead of retrying.
 */
bool errCodeTransient(ErrCode code);

/** A source position; line/col are 1-based, 0 means "unknown". */
struct SourceLoc
{
    std::string unit; ///< File or unit name ("<input>" by default).
    int line = 0;
    int col = 0;

    /** "unit:line:col", omitting trailing unknown components. */
    std::string str() const;
};

/** One diagnostic. */
struct Diag
{
    Severity severity = Severity::Error;
    ErrCode code = ErrCode::None;
    std::string message;
    SourceLoc loc;

    /** "unit:line:col: error[E0201]: message" */
    std::string format() const;
};

/**
 * Collects diagnostics during a frontend phase.  Cheap to construct;
 * one engine per checked compile.  Reporting never throws — callers
 * that need to abort (the parser's recovery machinery) check
 * atErrorLimit() and unwind themselves.
 */
class DiagEngine
{
  public:
    /** @param error_limit Errors after which clients should stop
     *  (a ParseTooManyErrors note is appended when reached). */
    explicit DiagEngine(std::size_t error_limit = 25)
        : error_limit_(error_limit)
    {
    }

    void report(Diag d);
    void error(ErrCode code, SourceLoc loc, std::string message);
    void warning(ErrCode code, SourceLoc loc, std::string message);

    bool hasErrors() const { return errors_ > 0; }
    std::size_t errorCount() const { return errors_; }
    bool atErrorLimit() const { return errors_ >= error_limit_; }

    const std::vector<Diag> &diags() const { return diags_; }
    std::vector<Diag> takeDiags() { return std::move(diags_); }

    /** All diagnostics, one formatted line each, '\n'-separated. */
    std::string formatAll() const;

  private:
    std::vector<Diag> diags_;
    std::size_t errors_ = 0;
    std::size_t error_limit_;
};

/** Render a diagnostic list, one formatted line each. */
std::string formatDiags(const std::vector<Diag> &diags);

/** First error code in a list (ErrCode::None if there is none). */
ErrCode firstErrorCode(const std::vector<Diag> &diags);

/**
 * Exception form of a diagnostic list, for layers that propagate
 * errors through futures or sweep cells rather than Result<T>.
 * what() is the formatted first error.
 */
class DiagException : public std::runtime_error
{
  public:
    explicit DiagException(std::vector<Diag> diags);
    explicit DiagException(Diag diag);

    const std::vector<Diag> &diags() const { return diags_; }
    ErrCode code() const { return firstErrorCode(diags_); }

  private:
    std::vector<Diag> diags_;
};

/**
 * Value-or-diagnostics result of a checked operation.  A failed
 * Result always carries at least one Error-severity diagnostic; a
 * successful one may still carry warnings.
 */
template <typename T>
class Result
{
  public:
    static Result
    success(T value, std::vector<Diag> diags = {})
    {
        Result r;
        r.value_ = std::move(value);
        r.diags_ = std::move(diags);
        return r;
    }

    static Result
    failure(std::vector<Diag> diags)
    {
        Result r;
        if (diags.empty()) {
            diags.push_back(Diag{Severity::Error, ErrCode::Internal,
                                 "unspecified failure", {}});
        }
        r.diags_ = std::move(diags);
        return r;
    }

    bool ok() const { return value_.has_value(); }

    T &value() & { return *value_; }
    const T &value() const & { return *value_; }
    /** Move the value out (ok() must hold). */
    T take() { return std::move(*value_); }

    const std::vector<Diag> &diags() const { return diags_; }
    std::vector<Diag> takeDiags() { return std::move(diags_); }

    /** First error code ("" section of a success: ErrCode::None). */
    ErrCode code() const { return firstErrorCode(diags_); }

    /** Formatted diagnostics, one per line. */
    std::string formatErrors() const { return formatDiags(diags_); }

    /** Throw the failure as a DiagException (ok() must not hold). */
    [[noreturn]] void
    raise() const
    {
        throw DiagException(diags_);
    }

  private:
    Result() = default;

    std::optional<T> value_;
    std::vector<Diag> diags_;
};

} // namespace ilp

#endif // SUPERSYM_SUPPORT_DIAG_HH
