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
 * serial run (see docs/parallel-sweeps.md).
 */

#ifndef SUPERSYM_BENCH_COMMON_HH
#define SUPERSYM_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
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
 * Harmonic-mean suite speedup (§4.3's aggregate) of each machine, in
 * machine order.  Every (machine, workload) cell is one cell of a
 * flat grid on sweeper(); the means are taken after the barrier.
 */
inline std::vector<double>
harmonicSpeedups(Study &study, const std::vector<MachineConfig> &machines)
{
    const auto &suite = allWorkloads();
    const std::size_t n = suite.size();
    const std::vector<double> speedup = sweeper().map<double>(
        machines.size() * n, [&](std::size_t i) {
            return study.speedup(suite[i % n], machines[i / n]);
        });
    std::vector<double> means;
    for (auto row = speedup.begin(); row != speedup.end(); row += n)
        means.push_back(harmonicMean({row, row + n}));
    return means;
}

} // namespace ilp::bench

#endif // SUPERSYM_BENCH_COMMON_HH
