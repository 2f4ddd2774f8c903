#include "support/diag.hh"

namespace ilp {

const char *
errCodeId(ErrCode code)
{
    switch (code) {
      case ErrCode::None: return "E0000";

      case ErrCode::LexUnexpectedChar: return "E0101";
      case ErrCode::LexUnterminatedComment: return "E0102";
      case ErrCode::LexIntLiteralOutOfRange: return "E0103";
      case ErrCode::LexRealLiteralOutOfRange: return "E0104";
      case ErrCode::LexStrayDot: return "E0105";

      case ErrCode::ParseUnexpectedToken: return "E0201";
      case ErrCode::ParseBadTopLevel: return "E0202";
      case ErrCode::ParseBadArraySize: return "E0203";
      case ErrCode::ParseBadInitializer: return "E0204";
      case ErrCode::ParseLocalArray: return "E0205";
      case ErrCode::ParseForStepVariable: return "E0206";
      case ErrCode::ParseTooManyErrors: return "E0207";

      case ErrCode::SemaRedeclaration: return "E0301";
      case ErrCode::SemaUndefined: return "E0302";
      case ErrCode::SemaTypeMismatch: return "E0303";
      case ErrCode::SemaBadCall: return "E0304";
      case ErrCode::SemaBreakOutsideLoop: return "E0305";
      case ErrCode::SemaBadLoopVariable: return "E0306";
      case ErrCode::SemaBadReturn: return "E0307";

      case ErrCode::TrapDivideByZero: return "E0401";
      case ErrCode::TrapOutOfBoundsMemory: return "E0402";
      case ErrCode::TrapMisalignedMemory: return "E0403";
      case ErrCode::TrapBadJump: return "E0404";
      case ErrCode::TrapFuelExhausted: return "E0405";
      case ErrCode::TrapStackOverflow: return "E0406";
      case ErrCode::TrapCallDepthExceeded: return "E0407";
      case ErrCode::TrapNoEntry: return "E0408";
      case ErrCode::TrapTransientFault: return "E0409";
      case ErrCode::TrapDeadlineExceeded: return "E0410";

      case ErrCode::OptTempRegsExhausted: return "E0501";
      case ErrCode::BytecodeLoweringFailed: return "E0502";

      case ErrCode::IoError: return "E0901";
      case ErrCode::JsonParseError: return "E0902";
      case ErrCode::ResourceExhausted: return "E0903";
      case ErrCode::Internal: return "E0999";
    }
    return "E????";
}

const char *
errCodeName(ErrCode code)
{
    switch (code) {
      case ErrCode::None: return "none";

      case ErrCode::LexUnexpectedChar: return "lex-unexpected-char";
      case ErrCode::LexUnterminatedComment:
        return "lex-unterminated-comment";
      case ErrCode::LexIntLiteralOutOfRange:
        return "lex-int-literal-out-of-range";
      case ErrCode::LexRealLiteralOutOfRange:
        return "lex-real-literal-out-of-range";
      case ErrCode::LexStrayDot: return "lex-stray-dot";

      case ErrCode::ParseUnexpectedToken:
        return "parse-unexpected-token";
      case ErrCode::ParseBadTopLevel: return "parse-bad-top-level";
      case ErrCode::ParseBadArraySize: return "parse-bad-array-size";
      case ErrCode::ParseBadInitializer:
        return "parse-bad-initializer";
      case ErrCode::ParseLocalArray: return "parse-local-array";
      case ErrCode::ParseForStepVariable:
        return "parse-for-step-variable";
      case ErrCode::ParseTooManyErrors: return "parse-too-many-errors";

      case ErrCode::SemaRedeclaration: return "sema-redeclaration";
      case ErrCode::SemaUndefined: return "sema-undefined";
      case ErrCode::SemaTypeMismatch: return "sema-type-mismatch";
      case ErrCode::SemaBadCall: return "sema-bad-call";
      case ErrCode::SemaBreakOutsideLoop:
        return "sema-break-outside-loop";
      case ErrCode::SemaBadLoopVariable:
        return "sema-bad-loop-variable";
      case ErrCode::SemaBadReturn: return "sema-bad-return";

      case ErrCode::TrapDivideByZero: return "trap-divide-by-zero";
      case ErrCode::TrapOutOfBoundsMemory:
        return "trap-out-of-bounds-memory";
      case ErrCode::TrapMisalignedMemory:
        return "trap-misaligned-memory";
      case ErrCode::TrapBadJump: return "trap-bad-jump";
      case ErrCode::TrapFuelExhausted: return "trap-fuel-exhausted";
      case ErrCode::TrapStackOverflow: return "trap-stack-overflow";
      case ErrCode::TrapCallDepthExceeded:
        return "trap-call-depth-exceeded";
      case ErrCode::TrapNoEntry: return "trap-no-entry";
      case ErrCode::TrapTransientFault: return "trap-transient-fault";
      case ErrCode::TrapDeadlineExceeded:
        return "trap-deadline-exceeded";

      case ErrCode::OptTempRegsExhausted:
        return "opt-temp-regs-exhausted";
      case ErrCode::BytecodeLoweringFailed:
        return "bytecode-lowering-failed";

      case ErrCode::IoError: return "io-error";
      case ErrCode::JsonParseError: return "json-parse-error";
      case ErrCode::ResourceExhausted: return "resource-exhausted";
      case ErrCode::Internal: return "internal";
    }
    return "unknown";
}

bool
errCodeTransient(ErrCode code)
{
    switch (code) {
      case ErrCode::TrapTransientFault:
      case ErrCode::ResourceExhausted:
        return true;
      default:
        return false;
    }
}

std::string
SourceLoc::str() const
{
    std::string out = unit.empty() ? "<input>" : unit;
    if (line > 0) {
        out += ':';
        out += std::to_string(line);
        if (col > 0) {
            out += ':';
            out += std::to_string(col);
        }
    }
    return out;
}

std::string
Diag::format() const
{
    const char *sev = severity == Severity::Error     ? "error"
                      : severity == Severity::Warning ? "warning"
                                                      : "note";
    std::string out = loc.str();
    out += ": ";
    out += sev;
    out += '[';
    out += errCodeId(code);
    out += "]: ";
    out += message;
    return out;
}

void
DiagEngine::report(Diag d)
{
    if (d.severity == Severity::Error)
        ++errors_;
    diags_.push_back(std::move(d));
}

void
DiagEngine::error(ErrCode code, SourceLoc loc, std::string message)
{
    report(Diag{Severity::Error, code, std::move(message),
                std::move(loc)});
}

void
DiagEngine::warning(ErrCode code, SourceLoc loc, std::string message)
{
    report(Diag{Severity::Warning, code, std::move(message),
                std::move(loc)});
}

std::string
DiagEngine::formatAll() const
{
    return formatDiags(diags_);
}

std::string
formatDiags(const std::vector<Diag> &diags)
{
    std::string out;
    for (const Diag &d : diags) {
        if (!out.empty())
            out += '\n';
        out += d.format();
    }
    return out;
}

ErrCode
firstErrorCode(const std::vector<Diag> &diags)
{
    for (const Diag &d : diags) {
        if (d.severity == Severity::Error)
            return d.code;
    }
    return ErrCode::None;
}

namespace {

std::string
firstErrorLine(const std::vector<Diag> &diags)
{
    for (const Diag &d : diags) {
        if (d.severity == Severity::Error)
            return d.format();
    }
    return diags.empty() ? std::string("unspecified failure")
                         : diags.front().format();
}

} // namespace

DiagException::DiagException(std::vector<Diag> diags)
    : std::runtime_error(firstErrorLine(diags)),
      diags_(std::move(diags))
{
}

DiagException::DiagException(Diag diag)
    : std::runtime_error(diag.format()), diags_({std::move(diag)})
{
}

} // namespace ilp
