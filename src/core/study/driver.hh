/**
 * @file
 * The machine evaluation environment of Section 3, end to end: "the
 * language system then optimizes the code, allocates registers, and
 * schedules the instructions for the pipeline, all according to this
 * specification.  The simulator executes the program according to the
 * same specification."
 *
 * compileWorkload() runs source -> (unroll) -> IR -> optimizer ->
 * register allocation -> machine-specific scheduling; runOnMachine()
 * then executes the result functionally while the in-order issue
 * engine times the dynamic stream against the *same* machine
 * description.  Because every machine gets its own schedule, almost
 * no two machines share a dynamic stream, so every timing run
 * executes live.
 */

#ifndef SUPERSYM_CORE_STUDY_DRIVER_HH
#define SUPERSYM_CORE_STUDY_DRIVER_HH

#include <string>

#include "core/machine/machine.hh"
#include "frontend/compile.hh"
#include "opt/pipeline.hh"
#include "sim/cache.hh"
#include "sim/interp.hh"
#include "sim/issue.hh"
#include "support/json.hh"
#include "workloads/workloads.hh"

namespace ilp {

struct CompileOptions
{
    OptLevel level = OptLevel::RegAlloc;
    UnrollOptions unroll;
    AliasLevel alias = AliasLevel::Conservative;
    RegFileLayout layout;
};

/** The paper's default measurement configuration (§4 headline runs):
 *  full optimization, 16 temps / 26 homes, array-symbol memory
 *  disambiguation, the workload's own default unroll factor. */
CompileOptions defaultCompileOptions(const Workload &workload);

/** The optimizer's view of a compile configuration. */
OptimizeOptions optimizeOptions(const CompileOptions &options);

/** The machine-independent prefix of compileWorkloadChecked(): parse,
 *  unroll, lower and allocateModule().  No machine parameter and not
 *  options.alias is read, so one prefix serves every machine and
 *  alias level (schedule a copy with scheduleModule()).  `telemetry`,
 *  when non-null, records the frontend phase plus every prefix
 *  phase. */
Result<AllocatedModule>
allocateWorkloadChecked(const std::string &source,
                        const CompileOptions &options,
                        CompileTelemetry *telemetry = nullptr,
                        const std::string &unit = "<input>");

/** Compile MT source for a machine (parses, unrolls, optimizes,
 *  allocates, schedules), reporting user errors (syntax, semantic,
 *  machine-limit) as diagnostics instead of exiting: validates the
 *  machine, then runs allocateWorkloadChecked() and schedules its
 *  module in place.  `telemetry`, when non-null, records the
 *  frontend phase plus every optimizer phase. */
Result<Module> compileWorkloadChecked(const std::string &source,
                                      const MachineConfig &machine,
                                      const CompileOptions &options,
                                      CompileTelemetry *telemetry =
                                          nullptr,
                                      const std::string &unit =
                                          "<input>");

/** Compile MT source for a machine; errors are fatal().  Thin
 *  wrapper over compileWorkloadChecked() for the CLI edge. */
Module compileWorkload(const std::string &source,
                       const MachineConfig &machine,
                       const CompileOptions &options,
                       CompileTelemetry *telemetry = nullptr);

/** What a run should observe about itself, beyond the headline
 *  numbers.  The default collects nothing and costs nothing. */
struct RunTelemetryOptions
{
    /** Build the full stats tree (run, issue, cache, mix, compile)
     *  with a default-configured data cache. */
    bool collectStats = false;
    /** Max issue-timeline events captured for --trace-events
     *  (0 disables capture). */
    std::size_t timelineLimit = 0;
    /** Collect per-static-instruction timing counters (the cycle
     *  profiler).  Off by default; the engine's emit path then pays
     *  only one predictable branch. */
    bool collectProfile = false;
};

/** Everything a timing run produces. */
struct RunOutcome
{
    /** main()'s checksum. */
    std::int64_t checksum = 0;
    /** Bit pattern of the `result_fp` global after the run (0 if the
     *  program has no such global). */
    double fpChecksum = 0.0;
    /** Dynamic instructions executed. */
    std::uint64_t instructions = 0;
    /** Elapsed time in base cycles on the machine. */
    double cycles = 0.0;

    /** Full stats tree (null unless collectStats). */
    Json stats;
    /** Issue timeline (empty unless timelineLimit > 0). */
    std::vector<IssueEvent> issueTimeline;
    std::uint64_t timelineDropped = 0;
    /** Per-pc timing counters (empty unless collectProfile); the
     *  last record is the unattributed (pc == kNoPc) bucket. */
    std::vector<PcCounters> pcCounters;
    /** Aggregate engine counters the per-pc records must reconcile
     *  with exactly (filled with pcCounters when collectProfile). */
    StallBreakdown stalls;
    std::uint64_t issueSlotsTotal = 0;
    /** Set when the workload faulted mid-run; checksum is then
     *  meaningless and cycles/instructions count up to the fault. */
    Trap trap;

    bool trapped() const { return trap.valid(); }

    /** Instructions per base cycle (the exploited parallelism).
     *  A run that never advanced the clock (cycles == 0) reports 0
     *  rather than inf/NaN, so downstream JSON stays finite. */
    double ipc() const
    {
        return cycles > 0.0 ? instructions / cycles : 0.0;
    }
};

/** The stats tree of one run, groups in --stats order: the
 *  outcome's headline numbers ("run"), the engine's "issue", the data
 *  cache's "cache" (its misses per instruction the engine issued),
 *  the class "mix" and, when `compile` is given, the "compile"
 *  telemetry. */
Json runStatsTree(const RunOutcome &out, const IssueEngine &engine,
                  const Cache &dcache, const ClassCounts &mix,
                  const CompileTelemetry *compile);

/** Execute an already-compiled module against a machine.  `compile`
 *  telemetry, when given, becomes the stats tree's "compile" group.
 *  A workload fault surfaces through RunOutcome::trap; an injected
 *  fault at the "execute" site throws (see support/faultinject.hh). */
RunOutcome runOnMachine(const Module &module,
                        const MachineConfig &machine,
                        const RunTelemetryOptions &telemetry = {},
                        const CompileTelemetry *compile = nullptr);

/** compileWorkload + runOnMachine in one step. */
RunOutcome runWorkload(const Workload &workload,
                       const MachineConfig &machine,
                       const CompileOptions &options,
                       const RunTelemetryOptions &telemetry = {});

/** Dynamic class frequencies of a workload (for Table 2-1). */
ClassFrequencies profileWorkload(const Workload &workload,
                                 const CompileOptions &options);

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_DRIVER_HH
