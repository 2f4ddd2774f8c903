/**
 * @file
 * Shared scaffolding for the per-table/per-figure bench binaries.
 * Each binary regenerates one table or figure of the paper as an
 * aligned text table (absolute values are ours; the *shape* is what
 * reproduces — see EXPERIMENTS.md).
 *
 * Sweep cells fan out across bench::sweeper() (job count from
 * SSIM_JOBS, default all cores); results are merged in cell order
 * after the barrier, so parallel output is byte-identical to a
 * serial run (see docs/parallel-sweeps.md).  The sweeping artifacts
 * declare their cells in one CellGrid (core/study/grid.hh), which
 * times each distinct run once and frees each compile prefix after
 * its last run.
 */

#ifndef SUPERSYM_BENCH_COMMON_HH
#define SUPERSYM_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/grid.hh"
#include "sim/trap.hh"
#include "support/statistics.hh"
#include "support/table.hh"

namespace ilp::bench {

/** Print the standard header naming the paper artifact. */
inline void
banner(const std::string &artifact, const std::string &caption)
{
    std::printf("==== %s — %s ====\n", artifact.c_str(),
                caption.c_str());
    std::printf("(Jouppi & Wall, ASPLOS 1989; reproduced by supersym."
                " Shapes, not absolute values, are the target.)\n\n");
}

/** The bench-wide worker pool (SSIM_JOBS, default all cores). */
inline const SweepRunner &
sweeper()
{
    static const SweepRunner runner;
    return runner;
}

/**
 * Each cell's speedup over the base machine, in cell order: its run's
 * instructions over its cycles (no cell times the base machine; see
 * core/study/experiment.hh).  The grid runs on sweeper().  Throws
 * TrapException when a run trapped, rather than print a bogus
 * speedup.
 */
inline std::vector<double>
speedups(CellGrid &grid)
{
    std::vector<double> out;
    for (const RunOutcome &run : grid.run(sweeper())) {
        if (run.trapped())
            throw TrapException(run.trap);
        out.push_back(run.ipc());
    }
    return out;
}

/**
 * Harmonic-mean suite speedup (§4.3's aggregate) of each machine, in
 * machine order, with each workload's default options.  Every
 * (machine, workload) pair is one cell of one grid; the means are
 * taken after the barrier.
 */
inline std::vector<double>
harmonicSpeedups(const std::vector<MachineConfig> &machines)
{
    const auto &suite = allWorkloads();
    const std::size_t n = suite.size();
    CellGrid grid;
    for (const MachineConfig &machine : machines) {
        for (const Workload &w : suite)
            grid.add(w, defaultCompileOptions(w), machine);
    }
    const std::vector<double> speedup = speedups(grid);
    std::vector<double> means;
    for (auto row = speedup.begin(); row != speedup.end(); row += n)
        means.push_back(harmonicMean({row, row + n}));
    return means;
}

} // namespace ilp::bench

#endif // SUPERSYM_BENCH_COMMON_HH
