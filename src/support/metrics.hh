/**
 * @file
 * What is left of the deleted ilp::metrics registry: a read-only
 * counter lookup that always reads 0.  Host time lives in flight-
 * recorder spans and every count in the stats tree.  Only the
 * perfbench driver still compiles a read of two long-gone trace-cache
 * counters, so nothing else includes this header; it is deleted once
 * that driver drops the read (ROADMAP item 4).
 */

#ifndef SUPERSYM_SUPPORT_METRICS_HH
#define SUPERSYM_SUPPORT_METRICS_HH

#include <cstdint>
#include <string>

namespace ilp::metrics {

struct Counter
{
    std::uint64_t value() const { return 0; }
};

struct Registry
{
    static Registry &global()
    {
        static Registry registry;
        return registry;
    }
    Counter counter(const std::string &) const { return {}; }
};

} // namespace ilp::metrics

#endif // SUPERSYM_SUPPORT_METRICS_HH
