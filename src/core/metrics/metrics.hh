/**
 * @file
 * The study's metrics.
 *
 *  - Average degree of superpipelining (§2.7, Table 2-1): dynamic
 *    instruction-class frequencies dotted with per-class operation
 *    latencies.  "To the extent that some operation latencies are
 *    greater than one base machine cycle, the remaining amount of
 *    exploitable instruction-level parallelism will be reduced."
 *  - Available parallelism / speedup: a run's instructions over its
 *    cycles (the base machine never stalls, so its cycles are the
 *    instruction count).
 *  - Expression-DAG parallelism (Figure 4-7): operation count divided
 *    by critical-path length, the vehicle for the "optimization can
 *    add or subtract parallelism" discussion.
 */

#ifndef SUPERSYM_CORE_METRICS_METRICS_HH
#define SUPERSYM_CORE_METRICS_METRICS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine/machine.hh"

namespace ilp {

/** Fraction of dynamic instructions per class (sums to ~1). */
using ClassFrequencies = std::array<double, kNumInstrClasses>;

/** Dynamic instruction counts per class. */
using ClassCounts = std::array<std::uint64_t, kNumInstrClasses>;

/** Normalize counts into frequencies. Panics on an empty profile. */
ClassFrequencies normalizeCounts(const ClassCounts &counts);

/**
 * Average degree of superpipelining: sum over classes of
 * frequency x latency (in the machine's own cycles).
 */
double averageDegreeOfSuperpipelining(const ClassFrequencies &freqs,
                                      const LatencyTable &latency);

/**
 * The paper's nominal Table 2-1 rows: instruction mix and latencies
 * for the MultiTitan and the CRAY-1.
 */
struct NominalMixRow
{
    const char *klass;
    double frequency;
    int multiTitanLatency;
    int cray1Latency;
};

/** The seven Table 2-1 rows (frequencies sum to 1.0). */
const std::vector<NominalMixRow> &paperNominalMix();

/** Table 2-1 result for the MultiTitan under the nominal mix (1.7). */
double nominalMultiTitanSuperpipelining();

/** Table 2-1 result for the CRAY-1 under the nominal mix (4.4). */
double nominalCray1Superpipelining();

// ------------------------------------------------------------- DAGs

/**
 * A small expression DAG for Figure 4-7 style arguments: nodes are
 * unit-latency operations; edges point from producers to consumers.
 */
class ExprDag
{
  public:
    /** Add a node depending on `deps`; returns its id. */
    int addNode(std::vector<int> deps = {});

    std::size_t size() const { return deps_.size(); }

    /** Longest path length, counting nodes. */
    int criticalPath() const;

    /** Parallelism = node count / critical path (Figure 4-7). */
    double parallelism() const;

  private:
    std::vector<std::vector<int>> deps_;
};

/**
 * Instruction-level parallelism actually required to fully utilize a
 * superpipelined superscalar machine of degree (n, m): n*m (Fig 4-3).
 */
int parallelismRequired(int n, int m);

} // namespace ilp

#endif // SUPERSYM_CORE_METRICS_METRICS_HH
