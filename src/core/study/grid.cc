#include "core/study/grid.hh"

namespace ilp {

std::size_t
CellGrid::add(const Workload &workload, const CompileOptions &options,
              const MachineConfig &sched, const MachineConfig &timing)
{
    sched.validate();
    const std::string key = CompileCache::key(workload, sched, options) +
                            "|t" + std::to_string(timing.specHash());
    const auto [run, fresh] = run_index_.emplace(key, runs_.size());
    if (fresh) {
        const auto [prefix, first] = prefix_index_.emplace(
            CompileCache::prefixKey(workload, options), uses_.size());
        if (first)
            uses_.push_back(0);
        ++uses_[prefix->second];
        runs_.push_back({&workload, options, sched, timing, prefix->second});
    }
    cell_run_.push_back(run->second);
    return cell_run_.size() - 1;
}

std::vector<RunOutcome>
CellGrid::run(const SweepRunner &runner)
{
    // Runs of each prefix that do not have their module yet: the
    // one that takes the count to 0 releases the prefix, and no run
    // asks the cache for it after that.
    std::vector<std::atomic<std::size_t>> pending(uses_.size());
    for (std::size_t p = 0; p < uses_.size(); ++p)
        pending[p].store(uses_[p]);
    timed_.store(0);

    std::vector<RunOutcome> outcomes;
    try {
        outcomes = runner.map<RunOutcome>(
            runs_.size(), [&](std::size_t i) {
                const Run &r = runs_[i];
                const std::shared_ptr<const Module> module =
                    cache_.compile(*r.workload, r.sched, r.options);
                if (pending[r.prefix].fetch_sub(1) == 1)
                    cache_.release(*r.workload, r.options);
                RunOutcome out = runOnMachine(*module, r.timing);
                timed_.fetch_add(1, std::memory_order_relaxed);
                return out;
            });
    } catch (...) {
        // The workers have joined: let go of what the unfinished runs
        // would have compiled from.
        cache_.clear();
        throw;
    }

    std::vector<RunOutcome> cells;
    cells.reserve(cell_run_.size());
    for (std::size_t run : cell_run_)
        cells.push_back(outcomes[run]);
    return cells;
}

} // namespace ilp
