#include "core/study/driver.hh"

#include <bit>

#include "sim/exec.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace ilp {

CompileOptions
defaultCompileOptions(const Workload &workload)
{
    CompileOptions o;
    o.level = OptLevel::RegAlloc;
    o.unroll.factor = workload.defaultUnroll;
    o.unroll.careful = false;
    o.alias = AliasLevel::Arrays;
    o.layout.numTemp = 16;
    o.layout.numHome = 26;
    return o;
}

OptimizeOptions
optimizeOptions(const CompileOptions &options)
{
    OptimizeOptions oo;
    oo.level = options.level;
    oo.layout = options.layout;
    oo.alias = options.alias;
    oo.reassociate = options.unroll.careful;
    return oo;
}

Result<AllocatedModule>
allocateWorkloadChecked(const std::string &source,
                        const CompileOptions &options,
                        CompileTelemetry *telemetry,
                        const std::string &unit)
{
    Result<Module> compiled =
        compileToIrChecked(source, options.unroll, unit);
    if (!compiled.ok())
        return Result<AllocatedModule>::failure(compiled.takeDiags());
    Module module = compiled.take();
    if (telemetry) {
        PhaseStat &fe = telemetry->phase("frontend");
        fe.runs += 1;
        for (const auto &func : module.functions()) {
            fe.instrsAfter += func.instrCount();
            fe.blocksAfter += func.blocks.size();
        }
    }
    try {
        return Result<AllocatedModule>::success(allocateModule(
            std::move(module), optimizeOptions(options), telemetry));
    } catch (const DiagException &e) {
        // Machine-configuration limits (e.g. a temp register file
        // too small for the workload) surface as diagnostics.
        return Result<AllocatedModule>::failure(e.diags());
    }
}

Result<Module>
compileWorkloadChecked(const std::string &source,
                       const MachineConfig &machine,
                       const CompileOptions &options,
                       CompileTelemetry *telemetry,
                       const std::string &unit)
{
    machine.validate();
    Result<AllocatedModule> prefix =
        allocateWorkloadChecked(source, options, telemetry, unit);
    if (!prefix.ok())
        return Result<Module>::failure(prefix.takeDiags());
    AllocatedModule &allocated = prefix.value();
    scheduleModule(allocated.module, allocated.frontendLocs, machine,
                   optimizeOptions(options), telemetry);
    return Result<Module>::success(std::move(allocated.module));
}

Module
compileWorkload(const std::string &source, const MachineConfig &machine,
                const CompileOptions &options,
                CompileTelemetry *telemetry)
{
    Result<Module> r =
        compileWorkloadChecked(source, machine, options, telemetry);
    if (!r.ok())
        SS_FATAL(r.formatErrors());
    return r.take();
}

Json
runStatsTree(const RunOutcome &out, const IssueEngine &engine,
             const CacheSink &dcache, const ClassCounts &mix,
             const CompileTelemetry *compile)
{
    Json run = Json::object();
    run.set("instructions", Json(out.instructions));
    run.set("base_cycles", Json(out.cycles));
    run.set("ipc", Json(out.ipc()));
    run.set("checksum", Json(out.checksum));

    Json tree = Json::object();
    tree.set("run", std::move(run));
    tree.set("issue", engine.exportStats());
    tree.set("cache", dcache.exportStats());
    tree.set("mix", exportClassMix(mix));
    if (compile)
        tree.set("compile", compile->exportStats());
    return tree;
}

RunOutcome
runOnMachine(const Module &module, const MachineConfig &machine,
             const RunTelemetryOptions &telemetry,
             const CompileTelemetry *compile)
{
    trace::ScopedSpan span("live_run", "execute");
    if (span.armed())
        span.detail(module.sourceName);
    if (fault::enabled())
        fault::maybeInject("execute");
    std::unique_ptr<Executor> exec = makeExecutor(module);
    IssueEngine engine(machine);
    if (telemetry.timelineLimit > 0)
        engine.recordTimeline(telemetry.timelineLimit);
    if (telemetry.collectProfile)
        engine.enableProfile(module.pcCount());

    CacheSink dcache{CacheConfig{}};
    RunResult r;
    if (telemetry.collectStats) {
        TeeSink tee;
        tee.addSink(&engine);
        tee.addSink(&dcache);
        r = exec->run("main", &tee);
    } else {
        // Fused: the backend binds the engine's emit directly into
        // its dispatch loop.
        r = exec->runTimed("main", engine);
    }

    // A trapped run's returnValue is meaningless, so the checksums
    // stay at their zero defaults.
    RunOutcome out;
    if (!r.trapped()) {
        out.checksum = static_cast<std::int64_t>(r.returnValue);
        if (module.findGlobal("result_fp")) {
            out.fpChecksum = std::bit_cast<double>(
                exec->memory().readGlobal(module, "result_fp"));
        }
    }
    out.instructions = r.instructions;
    out.cycles = engine.baseCycles();
    out.trap = r.trap;

    if (telemetry.timelineLimit > 0) {
        out.issueTimeline = engine.timeline();
        out.timelineDropped = engine.timelineDropped();
    }
    if (telemetry.collectProfile) {
        out.pcCounters = engine.profileCounters();
        out.stalls = engine.stallBreakdown();
        out.issueSlotsTotal =
            engine.issuePeriodMinorCycles() *
            static_cast<std::uint64_t>(engine.config().issueWidth);
    }
    if (telemetry.collectStats)
        out.stats = runStatsTree(out, engine, dcache, r.classCounts,
                                 compile);
    return out;
}

RunOutcome
runWorkload(const Workload &workload, const MachineConfig &machine,
            const CompileOptions &options,
            const RunTelemetryOptions &telemetry)
{
    CompileTelemetry compile;
    CompileTelemetry *record =
        telemetry.collectStats ? &compile : nullptr;
    Module module =
        compileWorkload(workload.source, machine, options, record);
    return runOnMachine(module, machine, telemetry, record);
}

ClassFrequencies
profileWorkload(const Workload &workload, const CompileOptions &options)
{
    MachineConfig base = MachineConfig{};
    Module module = compileWorkload(workload.source, base, options);
    RunResult r = makeExecutor(module)->run("main");
    if (r.trapped())
        SS_FATAL(r.trap.format());
    return normalizeCounts(r.classCounts);
}

} // namespace ilp
