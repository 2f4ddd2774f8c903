/**
 * @file
 * The "what-if" layer: dependence-graph analytics wired into the
 * study harness.
 *
 * Two consumers build one DepGraph per query from a live execution
 * (Study::dependenceGraph):
 *
 *  - `ssim whatif` — single-config questions: oracle critical path
 *    and ILP bound, analytic cycles for a machine, top critical-path
 *    dependence edges attributed back to MT source lines.
 *  - `ssim profile --slack` — per-line slack / "would speed up if"
 *    attribution interleaved with the profiler's code map.
 */

#ifndef SUPERSYM_CORE_STUDY_WHATIF_HH
#define SUPERSYM_CORE_STUDY_WHATIF_HH

#include <string>
#include <vector>

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

/** Everything `ssim whatif` reports for one workload + machine. */
struct Report
{
    std::string workload;
    std::string machineName;
    std::uint64_t machineHash = 0;
    int issueWidth = 1;
    int pipelineDegree = 1;

    /** Analytic timing + bounds for the machine. */
    AnalyticResult analytic;
    /** Slack analysis under the machine's latency table. */
    SlackReport slack;
    /** slack.topEdges with source attribution. */
    std::vector<EdgeRow> edges;

    /** Graph fingerprint (deterministic across jobs and backends). */
    std::uint64_t structureHash = 0;
    std::uint64_t graphNodes = 0;
};

/**
 * Build the dependence graph for `workload` compiled for
 * `machine` and answer the what-if queries.  Throws TrapException
 * when the workload faults (a graph of a partial run would bound
 * nothing), DiagException on compile errors.
 */
Report analyze(Study &study, const Workload &workload,
               const MachineConfig &machine,
               const CompileOptions &options, std::size_t topEdges);

/** Human-readable report (ssim whatif's stdout). */
std::string render(const Report &r);

/** Machine-readable form (schema: whatif-v1). */
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
