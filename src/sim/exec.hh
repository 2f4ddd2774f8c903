/**
 * @file
 * The execution-backend seam: one place that decides *how* a module
 * is functionally executed.
 *
 * Two backends produce the same observable artifacts (DynInstr
 * streams, checksums, trap records, poll instants, fault draws — see
 * sim/bytecode.hh for the contract):
 *
 *  - ExecBackend::Interp   — the IR-walk interpreter (sim/interp.hh),
 *    kept as the reference implementation and the fallback;
 *  - ExecBackend::Bytecode — the threaded-dispatch VM over a lowered
 *    image (sim/bytecode.hh), the default hot path.
 *
 * Selection: callers pass a backend (the CLI's --exec flag);
 * defaultExecBackend() resolves the session default from the
 * SSIM_EXEC environment variable ("interp" | "bytecode"), defaulting
 * to bytecode.  When bytecode lowering cannot represent a module,
 * makeExecutor transparently falls back to the interpreter —
 * backend() then reports what actually runs, and SSIM_DEBUG=bytecode
 * logs the event.
 *
 * An Executor owns its data memory (like one Interpreter or one VM)
 * and is reusable across runs, including after a trap.  It is not
 * thread-safe; sweep workers each build their own.
 */

#ifndef SUPERSYM_SIM_EXEC_HH
#define SUPERSYM_SIM_EXEC_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ir/module.hh"
#include "sim/interp.hh"
#include "sim/issue.hh"

namespace ilp {

enum class ExecBackend
{
    Interp,
    Bytecode,
};

/** "interp" / "bytecode". */
const char *execBackendName(ExecBackend backend);

/** Parse a backend name; std::nullopt when unrecognized. */
std::optional<ExecBackend> parseExecBackend(std::string_view name);

/**
 * The session default: the setDefaultExecBackend override when one
 * is active, else $SSIM_EXEC when set to a valid name (an invalid
 * value warns once and is ignored), else Bytecode.
 */
ExecBackend defaultExecBackend();

/**
 * Override the session default (the CLI's --exec flag; tests).
 * std::nullopt restores environment/default resolution.
 */
void setDefaultExecBackend(std::optional<ExecBackend> backend);

/** A functional execution backend bound to one module. */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Interpreter::run's exact contract, whichever backend. */
    virtual RunResult run(const std::string &entry = "main",
                          TraceSink *sink = nullptr) = 0;

    /**
     * Fused hot path: identical artifacts to run(entry, &engine), but
     * a backend may bind the engine into its dispatch loop (the
     * bytecode VM inlines the engine's issue step into every
     * handler).
     */
    virtual RunResult runTimed(const std::string &entry,
                               IssueEngine &engine) = 0;

    /** Data memory after (or during) execution (checksums). */
    virtual const Memory &memory() const = 0;

    /** What actually executes (Interp after a lowering fallback). */
    virtual ExecBackend backend() const = 0;
};

/**
 * Build an executor for `module` on the requested backend,
 * falling back from Bytecode to Interp when lowering fails.
 */
std::unique_ptr<Executor> makeExecutor(const Module &module,
                                       ExecBackend backend,
                                       InterpOptions options = {});

/** makeExecutor on the session default backend. */
std::unique_ptr<Executor> makeExecutor(const Module &module,
                                       InterpOptions options = {});

} // namespace ilp

#endif // SUPERSYM_SIM_EXEC_HH
