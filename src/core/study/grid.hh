/**
 * @file
 * One deduplicated grid of timed runs: the cells of a paper sweep.
 *
 * A sweeping artifact adds its cells up front, each a workload
 * compiled under some options, scheduled for one machine and timed on
 * another (usually the same one), and reads one RunOutcome per cell
 * from run().  The grid
 *
 *  - times each distinct run once.  A cell is keyed by
 *    CompileCache::key(workload, scheduling machine, options) plus
 *    the timing machine's specHash(), so cells that compile the same
 *    module and time it on the same specification share one run
 *    (Figure 4-1's ss(1) and sp(1) columns are one machine);
 *  - compiles through a CompileCache of its own, so each
 *    machine-independent prefix (parse, optimize, allocate) is
 *    compiled once, by its first run, and releases a prefix as soon
 *    as its last run has its scheduled module;
 *  - starts the runs in the order their first cells were added and
 *    returns the outcomes in cell order, so what is rendered from
 *    them is byte-identical at any job count.
 *
 * A Study's CompileCache holds every prefix until the Study goes
 * away; the grid's holds one only while a run still needs it.
 */

#ifndef SUPERSYM_CORE_STUDY_GRID_HH
#define SUPERSYM_CORE_STUDY_GRID_HH

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "core/study/sweep.hh"

namespace ilp {

class CellGrid
{
  public:
    /** Add a cell: `workload` compiled under `options`, scheduled for
     *  `sched` and timed on `timing`.  Returns the cell's index. */
    std::size_t add(const Workload &workload,
                    const CompileOptions &options,
                    const MachineConfig &sched,
                    const MachineConfig &timing);

    /** add() a cell scheduled for and timed on `machine`. */
    std::size_t add(const Workload &workload,
                    const CompileOptions &options,
                    const MachineConfig &machine)
    {
        return add(workload, options, machine, machine);
    }

    /**
     * Time every distinct run once on `runner` and return one outcome
     * per cell, in the order the cells were added.  A trapped run
     * surfaces through its outcome's trap.  A prefix that fails to
     * compile stops the grid and its DiagException is rethrown, as
     * SweepRunner::run() rethrows a cell's; the cache then holds no
     * prefix either.
     */
    std::vector<RunOutcome> run(const SweepRunner &runner);

    /** Distinct runs among the cells added. */
    std::size_t runs() const { return runs_.size(); }
    /** Distinct prefixes the runs compile. */
    std::size_t prefixes() const { return uses_.size(); }

    /** The cache the runs compile through: its misses() count the
     *  prefixes compiled, and its size() is 0 whenever run() is not
     *  running. */
    const CompileCache &cache() const { return cache_; }
    /** Runs the last run() timed. */
    std::size_t timed() const { return timed_.load(); }

  private:
    struct Run
    {
        const Workload *workload;
        CompileOptions options;
        MachineConfig sched;
        MachineConfig timing;
        /** Index into uses_. */
        std::size_t prefix;
    };

    std::vector<Run> runs_;
    /** Index into runs_ of each cell. */
    std::vector<std::size_t> cell_run_;
    std::map<std::string, std::size_t> run_index_;
    std::map<std::string, std::size_t> prefix_index_;
    /** Runs that compile each prefix. */
    std::vector<std::size_t> uses_;

    CompileCache cache_;
    std::atomic<std::size_t> timed_{0};
};

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_GRID_HH
