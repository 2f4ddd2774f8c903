#include "core/study/experiment.hh"

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
    RunOutcome out = timedRun(workload, machine, options);
    if (out.trapped())
        // Re-raise the trap so keep-going sweep cells record a
        // structured CellError instead of a bogus speedup.
        throw TrapException(out.trap);
    return out.ipc();
}

double
Study::speedup(const Workload &workload, const MachineConfig &machine)
{
    return speedup(workload, machine, defaultCompileOptions(workload));
}

} // namespace ilp
