#include "support/statistics.hh"

#include "support/logging.hh"

namespace ilp {

double
harmonicMean(const std::vector<double> &values)
{
    SS_ASSERT(!values.empty(), "harmonicMean of empty vector");
    double denom = 0.0;
    for (double v : values) {
        SS_ASSERT(v > 0.0, "harmonicMean requires positive values");
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

} // namespace ilp
