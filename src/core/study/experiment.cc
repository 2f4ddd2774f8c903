#include "core/study/experiment.hh"

#include "core/machine/models.hh"

namespace ilp {

std::string
Study::fingerprint(const Workload &workload,
                   const CompileOptions &options)
{
    return workload.name + "/" +
           std::to_string(static_cast<int>(options.level)) + "/" +
           std::to_string(options.unroll.factor) + "/" +
           std::to_string(options.unroll.careful ? 1 : 0) + "/" +
           std::to_string(static_cast<int>(options.alias)) + "/" +
           std::to_string(options.layout.numTemp) + "/" +
           std::to_string(options.layout.numHome);
}

double
Study::baseCycles(const Workload &workload,
                  const CompileOptions &options)
{
    const std::string key = fingerprint(workload, options);

    // One producer per key: the first caller inserts a future and
    // runs the base machine; concurrent callers block on the result
    // instead of re-running it.
    std::shared_future<double> future;
    std::shared_ptr<std::promise<double>> fill;
    {
        std::lock_guard<std::mutex> lock(base_mu_);
        auto it = base_cycles_.find(key);
        if (it == base_cycles_.end()) {
            fill = std::make_shared<std::promise<double>>();
            future = fill->get_future().share();
            base_cycles_.emplace(key, future);
        } else {
            future = it->second;
        }
    }
    if (fill) {
        try {
            RunOutcome out =
                timedRun(workload, baseMachine(), options);
            if (out.trapped())
                throw TrapException(out.trap);
            fill->set_value(out.cycles);
        } catch (...) {
            // Mirror the caches: evict the failed entry before
            // handing the exception to parked waiters, so a
            // transient fault (injected, memory pressure) is not
            // memoized forever — retried cells recompute.
            {
                std::lock_guard<std::mutex> lock(base_mu_);
                base_cycles_.erase(key);
            }
            fill->set_exception(std::current_exception());
        }
    }
    return future.get();
}

RunOutcome
Study::timedRun(const Workload &workload, const MachineConfig &machine,
                const CompileOptions &options,
                const RunTelemetryOptions &telemetry)
{
    CompileTelemetry compile;
    CompileTelemetry *record =
        telemetry.collectStats ? &compile : nullptr;
    std::shared_ptr<const Module> module =
        cache_.compile(workload, machine, options, record);
    return runOnMachine(*module, machine, telemetry, record);
}

prof::Profile
Study::profiledRun(const Workload &workload,
                   const MachineConfig &machine,
                   const CompileOptions &options)
{
    // One compile: the code map must come from the exact module that
    // executes.
    std::shared_ptr<const Module> module =
        cache_.compile(workload, machine, options, nullptr);

    RunTelemetryOptions telemetry;
    telemetry.collectProfile = true;
    RunOutcome out = runOnMachine(*module, machine, telemetry);
    if (out.trapped())
        throw TrapException(out.trap);
    return prof::buildProfile(workload.name, machine,
                              prof::CodeMap::build(*module), out);
}

double
Study::speedup(const Workload &workload, const MachineConfig &machine,
               const CompileOptions &options)
{
    double base = baseCycles(workload, options);
    RunOutcome out = timedRun(workload, machine, options);
    if (out.trapped())
        // Re-raise the trap so keep-going sweep cells record a
        // structured CellError instead of a bogus speedup.
        throw TrapException(out.trap);
    return base / out.cycles;
}

double
Study::speedup(const Workload &workload, const MachineConfig &machine)
{
    return speedup(workload, machine, defaultCompileOptions(workload));
}

double
Study::availableParallelism(const Workload &workload,
                            const CompileOptions &options, int degree)
{
    return speedup(workload, idealSuperscalar(degree), options);
}

} // namespace ilp
