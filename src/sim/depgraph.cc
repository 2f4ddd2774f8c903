#include "sim/depgraph.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"

namespace ilp {

// ------------------------------------------------------------ build

void
DepGraph::Builder::emit(const DynInstr &di)
{
    const NodeIdx me =
        static_cast<NodeIdx>(graph_.nodes_.size());
    SS_ASSERT(me != kNoNode, "dependence graph node index overflow");

    DepNode node;
    node.cls = di.cls();
    node.pc = di.pc;

    // True register dependences: the last writer in program order.
    // Mirrors IssueEngine::regReady — a source never written reads
    // the initial state (no producer, ready at 0); WAW resolves by
    // overwrite below, never by interlock.
    for (std::uint8_t i = 0; i < di.numSrcs; ++i) {
        const Reg r = di.srcs[i];
        if (r < last_writer_.size())
            node.regPred[i] = last_writer_[r];
    }

    // Memory dependence through the actual address: loads and stores
    // both wait for the latest earlier store to the same word
    // (IssueEngine::store_ready_ semantics).  A record's address is
    // one the memory accepted, so word-aligned.
    const std::size_t word =
        static_cast<std::size_t>(di.addr) / kWordBytes;
    if (di.addr >= 0 && word < last_store_.size() &&
        last_store_[word] != 0)
        node.memPred = static_cast<NodeIdx>(last_store_[word] - 1);

    graph_.nodes_.push_back(node);

    if (di.dst != kNoReg) {
        if (di.dst >= last_writer_.size())
            last_writer_.resize(
                static_cast<std::size_t>(di.dst) + 1, kNoNode);
        last_writer_[di.dst] = me;
    }
    if (di.addr >= 0 && isStore(di.op)) {
        last_store_.growTo(word);
        last_store_[word] = std::uint64_t{me} + 1;
    }
    if (di.pc != kNoPc && di.pc >= graph_.pc_count_)
        graph_.pc_count_ = di.pc + 1;
}

DepGraph
DepGraph::Builder::take()
{
    last_writer_.clear();
    last_writer_.shrink_to_fit();
    last_store_ = WordTable();
    return std::move(graph_);
}

std::uint64_t
DepGraph::structureHash() const
{
    // FNV-1a over the semantic fields only (padding excluded so the
    // digest is a property of the graph, not the allocator), one
    // 64-bit word per field rather than one byte: each step is still
    // a bijection of the running hash, so tables that differ in one
    // field always hash apart.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(nodes_.size());
    for (const DepNode &n : nodes_) {
        for (NodeIdx p : n.regPred)
            mix(p);
        mix(n.memPred);
        mix(n.pc);
        mix(static_cast<std::uint64_t>(n.cls));
    }
    return h;
}

// ------------------------------------------------------------ slack

SlackReport
DepGraph::slack(const MachineConfig &config, std::size_t topK) const
{
    SlackReport rep;
    rep.perPc.assign(static_cast<std::size_t>(pc_count_) + 1,
                     PcSlack{});
    if (nodes_.empty())
        return rep;

    std::array<std::uint64_t, kNumInstrClasses> lat{};
    for (std::size_t c = 0; c < kNumInstrClasses; ++c)
        lat[c] = static_cast<std::uint64_t>(
            config.latencyMinor(static_cast<InstrClass>(c)));

    // Forward pass over the true-dependence DAG: earliest issue e[i]
    // and the critical-path length T the slack is measured against.
    std::vector<std::uint64_t> earliest(nodes_.size());
    std::uint64_t T = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const DepNode &n = nodes_[i];
        std::uint64_t e = 0;
        for (NodeIdx p : n.regPred) {
            if (p != kNoNode)
                e = std::max(
                    e, earliest[p] +
                           lat[static_cast<std::size_t>(
                               nodes_[p].cls)]);
        }
        if (n.memPred != kNoNode)
            e = std::max(
                e, earliest[n.memPred] +
                       lat[static_cast<std::size_t>(
                           nodes_[n.memPred].cls)]);
        earliest[i] = e;
        T = std::max(T, e + lat[static_cast<std::size_t>(n.cls)]);
    }
    rep.criticalPathMinor = T;

    // Backward pass in reverse program order (a valid reverse
    // topological order: every edge points backwards): latest issue
    // l[i] that still meets T, relaxed into each producer.
    std::vector<std::uint64_t> latest(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        latest[i] = T - lat[static_cast<std::size_t>(nodes_[i].cls)];
    for (std::size_t i = nodes_.size(); i-- > 0;) {
        const DepNode &n = nodes_[i];
        const std::uint64_t need = latest[i];
        for (NodeIdx p : n.regPred) {
            if (p == kNoNode)
                continue;
            const std::uint64_t lp =
                need -
                lat[static_cast<std::size_t>(nodes_[p].cls)];
            latest[p] = std::min(latest[p], lp);
        }
        if (n.memPred != kNoNode) {
            const std::uint64_t lp =
                need - lat[static_cast<std::size_t>(
                           nodes_[n.memPred].cls)];
            latest[n.memPred] = std::min(latest[n.memPred], lp);
        }
    }

    // Per-pc rollup + critical-edge grouping.  An edge p -> i is
    // critical when its slack l[i] - e[p] - lat[p] is zero, i.e. it
    // lies on some longest path.
    struct EdgeAcc
    {
        std::uint64_t count = 0;
        std::uint64_t latency = 0;
    };
    std::unordered_map<std::uint64_t, EdgeAcc> regEdges, memEdges;
    auto edgeKey = [](Pc from, Pc to) {
        return static_cast<std::uint64_t>(from) << 32 |
               static_cast<std::uint64_t>(to);
    };

    const std::size_t unattributed = rep.perPc.size() - 1;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const DepNode &n = nodes_[i];
        SS_ASSERT(latest[i] >= earliest[i],
                  "negative slack: backward pass inconsistent");
        const std::uint64_t s = latest[i] - earliest[i];
        const std::size_t row =
            n.pc < pc_count_ ? static_cast<std::size_t>(n.pc)
                             : unattributed;
        PcSlack &ps = rep.perPc[row];
        ++ps.dynCount;
        ps.minSlackMinor = std::min(ps.minSlackMinor, s);
        const std::uint64_t myLat =
            lat[static_cast<std::size_t>(n.cls)];
        if (s == 0) {
            ++ps.critCount;
            ps.critLatencyMinor += myLat;
        }

        auto touch = [&](NodeIdx p, bool memory) {
            const std::uint64_t plat =
                lat[static_cast<std::size_t>(nodes_[p].cls)];
            if (latest[i] != earliest[p] + plat)
                return; // off every longest path
            EdgeAcc &acc =
                (memory ? memEdges
                        : regEdges)[edgeKey(nodes_[p].pc, n.pc)];
            ++acc.count;
            acc.latency += plat;
        };
        for (NodeIdx p : n.regPred) {
            if (p != kNoNode)
                touch(p, false);
        }
        if (n.memPred != kNoNode)
            touch(n.memPred, true);
    }

    auto harvest = [&](const std::unordered_map<std::uint64_t,
                                                EdgeAcc> &edges,
                       bool memory) {
        for (const auto &[key, acc] : edges) {
            CriticalEdge e;
            e.fromPc = static_cast<Pc>(key >> 32);
            e.toPc = static_cast<Pc>(key & 0xffffffffu);
            e.count = acc.count;
            e.latencyMinor = acc.latency;
            e.memory = memory;
            rep.topEdges.push_back(e);
        }
    };
    harvest(regEdges, false);
    harvest(memEdges, true);
    std::sort(rep.topEdges.begin(), rep.topEdges.end(),
              [](const CriticalEdge &a, const CriticalEdge &b) {
                  if (a.latencyMinor != b.latencyMinor)
                      return a.latencyMinor > b.latencyMinor;
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.fromPc != b.fromPc)
                      return a.fromPc < b.fromPc;
                  if (a.toPc != b.toPc)
                      return a.toPc < b.toPc;
                  return a.memory < b.memory;
              });
    if (rep.topEdges.size() > topK)
        rep.topEdges.resize(topK);
    return rep;
}

} // namespace ilp
