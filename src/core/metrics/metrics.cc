#include "core/metrics/metrics.hh"

#include <algorithm>

#include "support/logging.hh"

namespace ilp {

ClassFrequencies
normalizeCounts(const ClassCounts &counts)
{
    std::uint64_t total = 0;
    for (auto c : counts)
        total += c;
    SS_ASSERT(total > 0, "normalizeCounts on empty profile");
    ClassFrequencies f{};
    for (std::size_t i = 0; i < counts.size(); ++i)
        f[i] = static_cast<double>(counts[i]) /
               static_cast<double>(total);
    return f;
}

double
averageDegreeOfSuperpipelining(const ClassFrequencies &freqs,
                               const LatencyTable &latency)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < freqs.size(); ++i)
        acc += freqs[i] * static_cast<double>(latency[i]);
    return acc;
}

const std::vector<NominalMixRow> &
paperNominalMix()
{
    static const std::vector<NominalMixRow> rows = {
        {"logical", 0.10, 1, 1},
        {"shift", 0.10, 1, 2},
        {"add/sub", 0.20, 1, 3},
        {"load", 0.20, 2, 11},
        {"store", 0.15, 2, 1},
        {"branch", 0.15, 2, 3},
        {"FP", 0.10, 3, 7},
    };
    return rows;
}

namespace {

double
nominalDot(bool cray)
{
    double acc = 0.0;
    for (const auto &row : paperNominalMix())
        acc += row.frequency *
               (cray ? row.cray1Latency : row.multiTitanLatency);
    return acc;
}

} // namespace

double
nominalMultiTitanSuperpipelining()
{
    return nominalDot(false);
}

double
nominalCray1Superpipelining()
{
    return nominalDot(true);
}

int
ExprDag::addNode(std::vector<int> deps)
{
    for (int d : deps)
        SS_ASSERT(d >= 0 && static_cast<std::size_t>(d) < deps_.size(),
                  "ExprDag: dependency on unknown node ", d);
    deps_.push_back(std::move(deps));
    return static_cast<int>(deps_.size()) - 1;
}

int
ExprDag::criticalPath() const
{
    // Nodes are added in topological order by construction.
    std::vector<int> depth(deps_.size(), 1);
    int best = 0;
    for (std::size_t i = 0; i < deps_.size(); ++i) {
        for (int d : deps_[i])
            depth[i] = std::max(depth[i], depth[d] + 1);
        best = std::max(best, depth[i]);
    }
    return best;
}

double
ExprDag::parallelism() const
{
    SS_ASSERT(!deps_.empty(), "parallelism of an empty DAG");
    return static_cast<double>(deps_.size()) /
           static_cast<double>(criticalPath());
}

int
parallelismRequired(int n, int m)
{
    SS_ASSERT(n >= 1 && m >= 1, "parallelismRequired: bad degrees");
    return n * m;
}

} // namespace ilp
