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
#include <cstdlib>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/journal.hh"
#include "core/study/sweep.hh"
#include "support/json.hh"
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

// --------------------------------------------- sweep journal (opt-in)
//
// When SSIM_SWEEP_JOURNAL names a file, bench binaries checkpoint
// their completed sweep cells to it through the same crash-safe JSONL
// writer `ssim ilp/suite --journal` use (core/study/journal.hh):
// header + one CRC-framed line per cell, O_APPEND single-write lines,
// batched fsync.  A bench killed mid-sweep leaves every finished cell
// on disk for post-mortem inspection (`docs/robustness.md`).  Unset,
// everything below is a no-op.

/** Path of the bench sweep journal, or nullptr when disabled. */
inline const char *
sweepJournalPath()
{
    const char *path = std::getenv("SSIM_SWEEP_JOURNAL");
    return (path && *path) ? path : nullptr;
}

/** The process-wide bench journal writer (nullptr when disabled or
 *  unopenable — the bench itself must never fail on journal I/O). */
inline journal::Writer *
sweepJournal()
{
    static journal::Writer writer;
    static bool usable = [] {
        const char *path = sweepJournalPath();
        if (!path)
            return false;
        std::string error;
        if (!writer.open(path, &error)) {
            std::fprintf(stderr,
                         "warning: cannot open sweep journal %s: "
                         "%s\n",
                         path, error.c_str());
            return false;
        }
        return true;
    }();
    return usable ? &writer : nullptr;
}

/** Write the bench's identity header (no-op when disabled). */
inline void
journalHeader(const std::string &artifact, std::size_t cells)
{
    journal::Writer *w = sweepJournal();
    if (!w)
        return;
    Json identity = Json::object();
    identity.set("command", Json(std::string("bench")));
    identity.set("artifact", Json(artifact));
    identity.set("cells", Json(std::uint64_t(cells)));
    w->writeHeader(identity);
}

/** Checkpoint one completed bench cell (no-op when disabled). */
inline void
journalCell(const std::string &key, const Json &value)
{
    if (journal::Writer *w = sweepJournal())
        w->writeCell(key, value);
}

/**
 * Harmonic-mean suite speedup (§4.3's aggregate) of each machine, in
 * machine order.  Every (machine, workload) cell is one cell of a
 * flat grid on sweeper(), journaled from its worker thread as
 * "<workload>@<machine>"; the means are taken after the barrier.
 */
inline std::vector<double>
harmonicSpeedups(Study &study, const std::string &artifact,
                 const std::vector<MachineConfig> &machines)
{
    const auto &suite = allWorkloads();
    const std::size_t n = suite.size();
    journalHeader(artifact, machines.size() * n);
    const std::vector<double> speedup = sweeper().map<double>(
        machines.size() * n, [&](std::size_t i) {
            const MachineConfig &m = machines[i / n];
            const Workload &w = suite[i % n];
            const double s = study.speedup(w, m);
            Json cell = Json::object();
            cell.set("speedup", Json(s));
            journalCell(w.name + "@" + m.name, cell);
            return s;
        });
    std::vector<double> means;
    for (auto row = speedup.begin(); row != speedup.end(); row += n)
        means.push_back(harmonicMean({row, row + n}));
    return means;
}

} // namespace ilp::bench

#endif // SUPERSYM_BENCH_COMMON_HH
