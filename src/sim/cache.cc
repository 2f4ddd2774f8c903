#include "sim/cache.hh"

#include "support/logging.hh"

namespace ilp {

namespace {

bool
isPow2(std::int64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    if (!isPow2(config_.lineBytes) || !isPow2(config_.sizeBytes))
        SS_FATAL("cache size and line size must be powers of two");
    if (config_.associativity < 1)
        SS_FATAL("cache associativity must be >= 1");
    std::int64_t lines = config_.sizeBytes / config_.lineBytes;
    if (lines % config_.associativity != 0)
        SS_FATAL("cache associativity must divide the line count");
    num_sets_ = lines / config_.associativity;
    if (!isPow2(num_sets_))
        SS_FATAL("cache set count must be a power of two");
    lines_.assign(static_cast<std::size_t>(lines), Line{});
}

bool
Cache::access(std::int64_t addr)
{
    ++accesses_;
    ++tick_;
    std::int64_t line_addr = addr / config_.lineBytes;
    std::int64_t set = line_addr & (num_sets_ - 1);
    std::int64_t tag = line_addr >> 1; // any injective mapping works
    Line *base =
        &lines_[static_cast<std::size_t>(set * config_.associativity)];

    for (int w = 0; w < config_.associativity; ++w) {
        Line &l = base[w];
        if (l.tag == tag) {
            l.lastUse = tick_;
            return true;
        }
    }
    // Miss: fill an empty way if there is one, else evict the LRU.
    Line *victim = base;
    for (int w = 1; w < config_.associativity; ++w) {
        if (base[w].tag == -1) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    ++misses_;
    victim->tag = tag;
    victim->lastUse = tick_;
    return false;
}

double
Cache::missRatio() const
{
    SS_ASSERT(accesses_ > 0, "missRatio with no accesses");
    return static_cast<double>(misses_) /
           static_cast<double>(accesses_);
}

double
Cache::missCycles() const
{
    return static_cast<double>(misses_) * config_.missPenaltyCycles;
}

const std::vector<MissCostModel> &
paperMissCostRows()
{
    static const std::vector<MissCostModel> rows = {
        {"VAX 11/780", 10.0, 200.0, 1200.0},
        {"WRL Titan", 1.4, 45.0, 540.0},
        {"?", 0.5, 5.0, 350.0},
    };
    return rows;
}

double
speedupWithMissBurden(double issue_cpi_before, double issue_cpi_after,
                      double miss_cpi)
{
    SS_ASSERT(issue_cpi_after > 0.0 && issue_cpi_before > 0.0,
              "cpi must be positive");
    double before = issue_cpi_before + miss_cpi;
    double after = issue_cpi_after + miss_cpi;
    return before / after;
}

} // namespace ilp
