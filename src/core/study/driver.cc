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

Result<Module>
compileWorkloadChecked(const std::string &source,
                       const MachineConfig &machine,
                       const CompileOptions &options,
                       CompileTelemetry *telemetry,
                       const std::string &unit)
{
    Result<Module> compiled =
        compileToIrChecked(source, options.unroll, unit);
    if (!compiled.ok())
        return compiled;
    Module module = compiled.take();
    if (telemetry) {
        PhaseStat &fe = telemetry->phase("frontend");
        fe.runs += 1;
        for (const auto &func : module.functions()) {
            fe.instrsAfter += func.instrCount();
            fe.blocksAfter += func.blocks.size();
        }
    }
    OptimizeOptions oo;
    oo.level = options.level;
    oo.layout = options.layout;
    oo.alias = options.alias;
    oo.reassociate = options.unroll.careful;
    try {
        optimizeModule(module, machine, oo, telemetry);
    } catch (const DiagException &e) {
        // Machine-configuration limits (e.g. a temp register file
        // too small for the workload) surface as diagnostics.
        return Result<Module>::failure(e.diags());
    }
    return Result<Module>::success(std::move(module));
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

    CacheSink dcache(telemetry.cache);
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
    if (telemetry.collectStats) {
        stats::Registry registry;
        stats::Group &run = registry.group("run", "headline numbers");
        run.counter("instructions", "dynamic instructions")
            .inc(out.instructions);
        run.scalar("base_cycles", "elapsed base cycles")
            .set(out.cycles);
        run.scalar("ipc", "instructions per base cycle")
            .set(out.ipc());
        run.scalar("checksum", "main()'s return value")
            .set(static_cast<double>(out.checksum));

        engine.exportStats(
            registry.group("issue", "in-order issue engine"));
        dcache.exportStats(
            registry.group("cache", "data-cache model"));
        exportClassMix(
            registry.group("mix", "dynamic instruction mix"),
            r.classCounts);
        if (compile) {
            compile->exportStats(
                registry.group("compile", "compile pipeline"));
        }
        out.stats = registry.snapshot();
    }
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
    std::unique_ptr<Executor> exec = makeExecutor(module);
    ClassProfileSink profile;
    RunResult r = exec->run("main", &profile);
    if (r.trapped())
        SS_FATAL(r.trap.format());
    return profile.frequencies();
}

} // namespace ilp
