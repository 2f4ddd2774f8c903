/**
 * @file
 * Cache model for the Section 5.1 experiments.
 *
 * A set-associative cache with LRU replacement.  A stats run feeds it
 * every load and store address in program order: the bytecode VM's
 * fused runTimed gives it each straight-line segment's addresses
 * where it gives the segment to the issue engine (sim/bytecode.hh),
 * and the study driver reports it as the stats tree's "cache" group
 * (core/study/driver.hh).  Plus the miss-cost arithmetic of
 * Table 5-1: miss cost in cycles = memory time / cycle time, and in
 * *instructions* = miss-cost cycles / (cycles per instruction) — the
 * quantity whose growth the paper highlights (0.6 instructions on a
 * VAX-11/780, 8.6 on the WRL Titan, 140 on a hypothetical
 * 2-instruction-per-cycle superscalar).
 */

#ifndef SUPERSYM_SIM_CACHE_HH
#define SUPERSYM_SIM_CACHE_HH

#include <cstdint>
#include <vector>

namespace ilp {

struct CacheConfig
{
    std::int64_t sizeBytes = 64 * 1024;
    std::int64_t lineBytes = 32;
    int associativity = 1;
    /**
     * Miss cost in base cycles, used only for the miss-cycles
     * statistic (Table 5-1 arithmetic); 0 leaves the cost unmodelled.
     * The timing engine itself does not consume this — see §5.1.
     */
    double missPenaltyCycles = 0.0;
};

class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** @return true on hit. */
    bool access(std::int64_t addr);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return accesses_ - misses_; }
    std::uint64_t misses() const { return misses_; }
    double missRatio() const;

    /** Modelled miss burden: misses * missPenaltyCycles. */
    double missCycles() const;

    const CacheConfig &config() const { return config_; }

  private:
    struct Line
    {
        std::int64_t tag = -1;
        std::uint64_t lastUse = 0;
    };

    CacheConfig config_;
    std::int64_t num_sets_;
    std::vector<Line> lines_;
    std::uint64_t tick_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

// ------------------------------------------------ Table 5-1 arithmetic

/** One row of Table 5-1. */
struct MissCostModel
{
    const char *machine;
    double cyclesPerInstr;
    double cycleTimeNs;
    double memTimeNs;

    /** Miss cost in machine cycles (memory time / cycle time). */
    double missCostCycles() const { return memTimeNs / cycleTimeNs; }
    /** Miss cost in average instruction times. */
    double missCostInstr() const
    {
        return missCostCycles() / cyclesPerInstr;
    }
};

/** The paper's three Table 5-1 rows (VAX-11/780, WRL Titan, "?"). */
const std::vector<MissCostModel> &paperMissCostRows();

/**
 * §5.1 dilution arithmetic: performance improvement from parallel
 * issue when each instruction carries `miss_cpi` cycles of cache-miss
 * burden.  Returns the speedup of moving the issue component from
 * `issue_cpi_before` to `issue_cpi_after` at fixed miss burden.
 */
double speedupWithMissBurden(double issue_cpi_before,
                             double issue_cpi_after, double miss_cpi);

} // namespace ilp

#endif // SUPERSYM_SIM_CACHE_HH
