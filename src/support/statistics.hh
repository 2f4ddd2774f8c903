/**
 * @file
 * The suite aggregate.  The paper reports the harmonic mean of
 * per-benchmark speedups (Section 4.3 plots a "single curve for the
 * harmonic mean of all eight benchmarks").
 */

#ifndef SUPERSYM_SUPPORT_STATISTICS_HH
#define SUPERSYM_SUPPORT_STATISTICS_HH

#include <vector>

namespace ilp {

/** Harmonic mean of strictly positive values. Panics on empty input. */
double harmonicMean(const std::vector<double> &values);

} // namespace ilp

#endif // SUPERSYM_SUPPORT_STATISTICS_HH
