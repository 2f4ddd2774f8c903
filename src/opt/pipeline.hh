/**
 * @file
 * The whole optimizer as one call: applies the cumulative Figure 4-8
 * levels, assigns registers, and schedules for a target machine —
 * optionally recording per-phase telemetry (IR deltas, spills, static
 * schedule fill rate) for the stats tree.  Host time is the flight
 * recorder's job (support/trace.hh): every phase is a span.
 */

#ifndef SUPERSYM_OPT_PIPELINE_HH
#define SUPERSYM_OPT_PIPELINE_HH

#include <string>
#include <vector>

#include "opt/passes.hh"
#include "support/stats.hh"

namespace ilp {

/** Aggregated record of one optimizer phase across all functions. */
struct PhaseStat
{
    std::string name;
    /** Function-level invocations aggregated into this record. */
    std::uint64_t runs = 0;
    /** Instruction/block totals summed over runs, before and after. */
    std::uint64_t instrsBefore = 0;
    std::uint64_t instrsAfter = 0;
    std::uint64_t blocksBefore = 0;
    std::uint64_t blocksAfter = 0;
    /** Pass-reported change units (folds, hoists, spills, ...). */
    std::int64_t changed = 0;
};

/**
 * Everything the compile pipeline reports about one compilation.
 * Deterministic: the same source, machine and options always produce
 * the same telemetry.  Fill by passing a pointer to optimizeModule()
 * (and, at the driver level, to compileWorkload()); costs nothing
 * when absent.
 */
struct CompileTelemetry
{
    std::vector<PhaseStat> phases;
    /** Virtual registers demoted to memory by assignRegisters. */
    std::uint64_t spills = 0;
    ScheduleStats sched;

    /** Find-or-append the aggregated record for `name`. */
    PhaseStat &phase(const std::string &name);

    /** Export into a stats group ("compile"). */
    void exportStats(stats::Group &g) const;
};

struct OptimizeOptions
{
    OptLevel level = OptLevel::RegAlloc;
    /** Temp/home register split (§3; Figure 4-8 uses 16/26). */
    RegFileLayout layout;
    /** Memory disambiguation given to the scheduler. */
    AliasLevel alias = AliasLevel::Conservative;
    /**
     * Careful-unrolling reassociation (§4.4).  Changes FP results by
     * design, so it is not part of any Figure 4-8 level.
     */
    bool reassociate = false;
};

/**
 * Optimize, allocate, and (at OptLevel >= Sched) schedule every
 * function of `module` for `machine`.  After this the module is
 * physical-register code, ready for tracing/timing.  `telemetry`,
 * when non-null, accumulates per-phase IR deltas.
 */
void optimizeModule(Module &module, const MachineConfig &machine,
                    const OptimizeOptions &options,
                    CompileTelemetry *telemetry = nullptr);

} // namespace ilp

#endif // SUPERSYM_OPT_PIPELINE_HH
