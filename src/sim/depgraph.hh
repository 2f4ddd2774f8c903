/**
 * @file
 * The dynamic dependence graph of one execution, and the slack
 * analysis over it.
 *
 * One build pass over the dynamic stream resolves every
 * timing-relevant dependence into a fixed topology —
 *
 *  - true register dependences (last writer in program order; the
 *    engine's WAW-by-overwrite rule means output dependences never
 *    interlock, they only redirect who the last writer is),
 *  - memory dependences through actual word addresses (loads and
 *    stores wait for the completion of the latest earlier store to
 *    the same word — exactly the engine's store_ready_ rule).
 *
 * The graph times no machine: cycles come from the issue engine
 * (sim/issue.hh).  Its query, slack(config), is an array walk over
 * the node table (no hash lookups, no DynInstr unpacking, no virtual
 * sink dispatch): earliest/latest issue times over the
 * true-dependence DAG under the config's latencies.  The forward
 * pass's length is the oracle critical path — the longest
 * true-dependence chain, ignoring issue order and width, behind the
 * paper's oracle ILP bound.  Per-node slack (>= 0; critical nodes
 * have zero) is aggregated per static instruction for "would speed
 * up if" attribution, plus the hottest critical edges grouped by
 * (producer pc, consumer pc).
 *
 * Latencies scale linearly with the pipeline degree (latencyMinor =
 * latencyBase * m), so oracle results in base cycles are independent
 * of m.
 */

#ifndef SUPERSYM_SIM_DEPGRAPH_HH
#define SUPERSYM_SIM_DEPGRAPH_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/machine/machine.hh"
#include "sim/trace.hh"
#include "sim/wordtable.hh"

namespace ilp {

/** Node index into DepGraph::nodes(); kNoNode marks "no producer". */
using NodeIdx = std::uint32_t;
inline constexpr NodeIdx kNoNode =
    std::numeric_limits<NodeIdx>::max();

/**
 * One dynamic instruction, reduced to what timing depends on: its
 * class, its static pc (for attribution), and the producers it waits
 * for.  28 bytes per dynamic instruction.
 */
struct DepNode
{
    /** Producer nodes of register sources (kNoNode-padded).  The
     *  slot count mirrors DynInstr::srcs. */
    std::array<NodeIdx, 4> regPred{kNoNode, kNoNode, kNoNode,
                                   kNoNode};
    /** Latest earlier store to the same word (kNoNode if none or not
     *  a memory reference). */
    NodeIdx memPred = kNoNode;
    /** Static instruction id (kNoPc when never assigned). */
    Pc pc = kNoPc;
    InstrClass cls = InstrClass::IntAdd;
};

static_assert(sizeof(DepNode) == 28, "DepNode layout drifted");

/** Per-static-instruction slack rollup (see SlackReport). */
struct PcSlack
{
    /** Dynamic instances of this pc. */
    std::uint64_t dynCount = 0;
    /** Instances on a critical path (zero slack). */
    std::uint64_t critCount = 0;
    /** Sum of critical instances' latencies (minor cycles) — this
     *  pc's direct contribution to the critical path. */
    std::uint64_t critLatencyMinor = 0;
    /** Smallest slack of any instance, in minor cycles. */
    std::uint64_t minSlackMinor =
        std::numeric_limits<std::uint64_t>::max();
};

/** A group of same-(producer pc, consumer pc) critical edges. */
struct CriticalEdge
{
    Pc fromPc = kNoPc;
    Pc toPc = kNoPc;
    /** Dynamic critical edges in the group. */
    std::uint64_t count = 0;
    /** Total latency carried across the group (minor cycles). */
    std::uint64_t latencyMinor = 0;
    /** true = memory dependence, false = register dependence. */
    bool memory = false;
};

/**
 * Slack analysis of the true-dependence DAG under one config's
 * latencies: how far each dynamic instruction sits from the critical
 * path, rolled up per static instruction.
 */
struct SlackReport
{
    /** Oracle critical path in minor cycles (the schedule length the
     *  slack is measured against). */
    std::uint64_t criticalPathMinor = 0;
    /** Rollup rows indexed by pc; the last row is the unattributed
     *  (pc == kNoPc) bucket, mirroring PcCounters. */
    std::vector<PcSlack> perPc;
    /** Critical-path edge groups, hottest (by latency) first. */
    std::vector<CriticalEdge> topEdges;
};

/**
 * The dependence graph of one execution.  Immutable after build;
 * every query is const and safe to run concurrently.
 */
class DepGraph
{
  public:
    /**
     * Streaming builder: a TraceSink that constructs the graph
     * directly from an execution's dynamic stream.  Defined after the
     * class (it holds a DepGraph by value).
     */
    class Builder;

    std::size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }
    const std::vector<DepNode> &nodes() const { return nodes_; }

    /** Static instruction count implied by the nodes: max pc + 1
     *  over attributed nodes (0 when none carry a pc). */
    Pc pcCount() const { return pc_count_; }

    /** Word-wise FNV-1a digest over the full node table — build
     *  determinism fingerprint (identical at any job count and
     *  whether the VM or the interpreter produced the stream). */
    std::uint64_t structureHash() const;

    /**
     * Slack analysis under `config`'s latency table (forward +
     * backward pass over the true-dependence DAG).  `topK` bounds
     * the returned critical-edge groups.
     */
    SlackReport slack(const MachineConfig &config,
                      std::size_t topK = 16) const;

  private:
    std::vector<DepNode> nodes_;
    Pc pc_count_ = 0;
};

class DepGraph::Builder : public TraceSink
{
  public:
    void emit(const DynInstr &di) override;
    /** Move the finished graph out (the builder is then spent). */
    DepGraph take();

  private:
    DepGraph graph_;
    /** Last writer per register (build-time scratch). */
    std::vector<NodeIdx> last_writer_;
    /** Last store per memory word (index addr / kWordBytes), as its
     *  node index plus one, so an untouched word reads 0, "no store"
     *  (build-time scratch; a WordTable, sim/wordtable.hh). */
    WordTable last_store_;
};

} // namespace ilp

#endif // SUPERSYM_SIM_DEPGRAPH_HH
