/**
 * @file
 * The whole optimizer: applies the cumulative Figure 4-8 levels,
 * assigns registers, and schedules for a target machine — optionally
 * recording per-phase telemetry (IR deltas, spills, static schedule
 * fill rate) for the stats tree.  Host time is the flight recorder's
 * job (support/trace.hh): every phase is a span.
 *
 * Only the list scheduler reads the machine, so the pipeline is two
 * steps: a machine-independent prefix (allocateModule: every phase up
 * to and including register assignment) and a per-machine suffix
 * (scheduleModule).  optimizeModule() is their composition; a caller
 * that targets many machines runs the prefix once and schedules a
 * copy of it per machine.
 */

#ifndef SUPERSYM_OPT_PIPELINE_HH
#define SUPERSYM_OPT_PIPELINE_HH

#include <string>
#include <vector>

#include "opt/passes.hh"
#include "support/json.hh"

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

    /** The stats tree's "compile" object. */
    Json exportStats() const;
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
 * A module after the machine-independent prefix, with the snapshot of
 * the frontend's source locations that the suffix verifies the
 * finished module against.  Copyable: one prefix serves any number of
 * machines.
 */
struct AllocatedModule
{
    Module module;
    /** collectSourceLocs() of the frontend's output. */
    std::vector<SrcLoc> frontendLocs;
};

/**
 * The machine-independent prefix: local cleanup, LICM, reassociation,
 * home promotion, strength reduction and register assignment over
 * every function of the frontend's `module`, as options.level,
 * options.reassociate and options.layout select (options.alias is
 * not read).  `telemetry`, when non-null, accumulates per-phase IR
 * deltas and spills.
 */
AllocatedModule allocateModule(Module module,
                               const OptimizeOptions &options,
                               CompileTelemetry *telemetry = nullptr);

/**
 * The per-machine suffix: at OptLevel >= Sched, list-schedule every
 * function of `module` (an allocateModule() result, or a copy of one)
 * for `machine` under options.alias; then verify the IR and its
 * source locations against `frontendLocs` and assign pcs.  `machine`
 * must be valid (MachineConfig::validate).  `telemetry`, when
 * non-null, accumulates the `sched` phase and fill-rate statistics.
 */
void scheduleModule(Module &module,
                    const std::vector<SrcLoc> &frontendLocs,
                    const MachineConfig &machine,
                    const OptimizeOptions &options,
                    CompileTelemetry *telemetry = nullptr);

/**
 * Optimize, allocate, and (at OptLevel >= Sched) schedule every
 * function of `module` for `machine`: validates the machine, then
 * runs allocateModule() and scheduleModule().  After this the module
 * is physical-register code, ready for tracing/timing.  `telemetry`,
 * when non-null, accumulates per-phase IR deltas.
 */
void optimizeModule(Module &module, const MachineConfig &machine,
                    const OptimizeOptions &options,
                    CompileTelemetry *telemetry = nullptr);

} // namespace ilp

#endif // SUPERSYM_OPT_PIPELINE_HH
