/**
 * @file
 * The "what-if" layer: the dependence graph of one execution wired
 * into the study harness, next to the issue engine's timing of it.
 *
 * Two consumers build one DepGraph per query from a live execution
 * (Study::dependenceGraph):
 *
 *  - `ssim whatif` — one workload on one machine: the issue engine's
 *    cycles (the numbers `ssim run` prints) against the oracle
 *    critical path and ILP bound and the issue-bandwidth and
 *    unit-conflict bounds, plus the top critical-path dependence
 *    edges attributed back to MT source lines.
 *  - `ssim profile --slack` — per-line slack / "would speed up if"
 *    attribution interleaved with the profiler's code map.
 */

#ifndef SUPERSYM_CORE_STUDY_WHATIF_HH
#define SUPERSYM_CORE_STUDY_WHATIF_HH

#include <string>
#include <vector>

#include "core/study/driver.hh"
#include "core/study/profile.hh"
#include "sim/depgraph.hh"
#include "support/json.hh"

namespace ilp {

class Study;

namespace whatif {

/** A critical dependence edge mapped back onto the program. */
struct EdgeRow
{
    CriticalEdge edge;
    /** Source lines of producer/consumer (0 = unknown). */
    int fromLine = 0;
    int toLine = 0;
    /** Printer form of the two scheduled instructions. */
    std::string fromText;
    std::string toText;
};

/** Resource lower bounds on the machine's cycles, in minor cycles. */
struct Bounds
{
    /** Issue bandwidth: floor((N-1)/width) + the last instruction's
     *  latency. */
    std::uint64_t issueMinor = 0;
    /** The strongest per-functional-unit throughput bound (0 when the
     *  machine has no units). */
    std::uint64_t unitMinor = 0;
};

/** Everything `ssim whatif` reports for one workload + machine. */
struct Report
{
    std::string workload;
    std::string machineName;
    std::uint64_t machineHash = 0;
    int pipelineDegree = 1;

    /** The issue engine's run of the traced module (runOnMachine, as
     *  in `ssim run`). */
    RunOutcome run;
    Bounds bounds;
    /** Slack analysis under the machine's latency table; its
     *  criticalPathMinor is the oracle critical path. */
    SlackReport slack;
    /** slack.topEdges with source attribution. */
    std::vector<EdgeRow> edges;

    /** Graph fingerprint (DepGraph::structureHash). */
    std::uint64_t structureHash = 0;
    std::uint64_t graphNodes = 0;
};

/**
 * Compile `workload` for `machine` once, trace its dependence graph
 * and time the same module on the issue engine.  Throws TrapException
 * when the workload faults (a graph of a partial run would bound
 * nothing), DiagException on compile errors.
 */
Report analyze(Study &study, const Workload &workload,
               const MachineConfig &machine,
               const CompileOptions &options, std::size_t topEdges);

/** Human-readable report (ssim whatif's stdout). */
std::string render(const Report &r);

/** Machine-readable form (schema: whatif-v2). */
Json toJson(const Report &r);

/**
 * Per-line slack listing for `ssim profile --slack`: the profiler's
 * line rollup joined with the graph's slack rollup — which lines sit
 * on the oracle critical path (zero slack, "speeding this up speeds
 * the program up") and which have room.  Deterministic; reuses the
 * profile's code map, so lines match the annotated listing.
 */
std::string renderSlackListing(const prof::Profile &profile,
                               const SlackReport &slack,
                               const std::string &source,
                               std::size_t topN);

} // namespace whatif
} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_WHATIF_HH
