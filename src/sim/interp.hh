/**
 * @file
 * The instruction-level (functional) simulator.
 *
 * Executes a module from its `main` function, optionally streaming
 * every executed instruction into a TraceSink.  Works on both
 * virtual-register code (straight out of the front end) and
 * physical-register code (after allocation); the only difference is
 * the size of the per-frame register file.
 *
 * Modelling choices (documented in DESIGN.md):
 *  - each activation gets its own register file — an idealized
 *    callee-save convention whose save/restore traffic is not traced,
 *    mirroring the paper's intermodule register allocation which
 *    eliminated most save/restore code;
 *  - calls/returns are traced as Branch-class instructions;
 *  - a fuel limit guards against runaway workloads.
 */

#ifndef SUPERSYM_SIM_INTERP_HH
#define SUPERSYM_SIM_INTERP_HH

#include <cstdint>
#include <string>

#include "ir/module.hh"
#include "sim/memory.hh"
#include "sim/trace.hh"
#include "sim/trap.hh"
#include "support/stats.hh"

namespace ilp {

struct InterpOptions
{
    /** Maximum dynamic instructions before giving up. */
    std::uint64_t fuel = 2'000'000'000ULL;
    std::int64_t stackBytes = 1 << 20;
};

struct RunResult
{
    /** Bit pattern returned by the entry function (0 for void). */
    std::uint64_t returnValue = 0;
    /** Dynamic instructions executed, calling-convention moves
     *  included, whether or not a sink is attached. */
    std::uint64_t instructions = 0;
    /** Dynamic instruction mix (same stream a trace sink sees). */
    ClassCounts classCounts{};
    /** Set when the workload faulted; returnValue is then
     *  meaningless and `instructions` counts up to the fault. */
    Trap trap;

    bool trapped() const { return trap.valid(); }
};

/** Export a dynamic class mix into a stats group (counts plus
 *  fractions), skipping classes that never occur. */
void exportClassMix(stats::Group &g, const ClassCounts &counts);

class Interpreter
{
  public:
    explicit Interpreter(const Module &module,
                         InterpOptions options = {});

    /**
     * Run `entry` (default "main") with no arguments.
     *
     * A workload fault (trap) does not propagate: the returned
     * RunResult carries the Trap record and the interpreter object
     * remains usable for further runs.
     *
     * @param sink Optional trace sink; null to run untraced.
     */
    RunResult run(const std::string &entry = "main",
                  TraceSink *sink = nullptr);

    /** Data memory after (or during) execution. */
    const Memory &memory() const { return mem_; }
    Memory &memory() { return mem_; }

  private:
    std::uint64_t callFunction(const Function &func,
                               const std::vector<std::uint64_t> &args);
    std::uint64_t execFrame(const Function &func,
                            const std::vector<std::uint64_t> &args);

    const Module &module_;
    InterpOptions opts_;
    Memory mem_;
    TraceSink *sink_ = nullptr;
    std::uint64_t executed_ = 0;
    ClassCounts class_counts_{};
    std::int64_t stack_top_ = 0;
    int call_depth_ = 0;
    /** Register-file arena: one zero-initialized frame per active
     *  call (avoids per-call allocation on the hot path). */
    std::vector<std::uint64_t> arena_;
    /** Register named by the most recent Ret (for the return-value
     *  transfer move in the trace). */
    Reg last_ret_reg_ = kNoReg;
};

} // namespace ilp

#endif // SUPERSYM_SIM_INTERP_HH
