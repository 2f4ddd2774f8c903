/**
 * Google-benchmark microbenchmarks of the toolchain itself: compile
 * throughput, functional-simulation rate, and timing-simulation rate.
 * Not a paper artifact — operational health of the reproduction.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>

#include "core/study/driver.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "core/machine/models.hh"
#include "sim/exec.hh"
#include "sim/interp.hh"
#include "sim/issue.hh"
#include "support/bench.hh"
#include "support/trace.hh"

using namespace ilp;

namespace {

const Workload &
wl()
{
    return workloadByName("yacc");
}

using BenchClock = std::chrono::steady_clock;

double
secondsSince(BenchClock::time_point t0)
{
    return std::chrono::duration<double>(BenchClock::now() - t0)
        .count();
}

/** The bench-v2 trajectory named by SSIM_BENCH_STATS, or nullptr
 *  when recording is off. */
const char *
trajectoryPath()
{
    const char *path = std::getenv("SSIM_BENCH_STATS");
    return (path && *path) ? path : nullptr;
}

/**
 * Record one per-repetition rate sample for the SSIM_BENCH_STATS
 * trajectory (BENCH_throughput.json).  google-benchmark invokes each
 * BM function several times — calibration runs at small iteration
 * counts, then the settled repetitions — so every invocation records
 * one sample here and main() folds each label's samples into a single
 * bench-v2 datapoint (robust summary + provenance) at exit;
 * bench::flushSamples drops the calibration runs as warmup by their
 * iteration counts.  No-op when the trajectory is disabled, so the
 * default bench cost is unchanged.
 */
void
recordRateSample(const std::string &label, const char *unit,
                 double value, const benchmark::State &state)
{
    if (!trajectoryPath())
        return;
    bench::recordSample(label, unit, "higher", value,
                        static_cast<std::uint64_t>(state.iterations()));
}

void
BM_CompileWorkload(benchmark::State &state)
{
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    for (auto _ : state) {
        Module m = compileWorkload(w.source, idealSuperscalar(4), o);
        benchmark::DoNotOptimize(m.functions().size());
    }
}
BENCHMARK(BM_CompileWorkload)->Unit(benchmark::kMillisecond);

void
BM_FunctionalSimulation(benchmark::State &state)
{
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    Module m = compileWorkload(w.source, baseMachine(), o);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        Interpreter interp(m);
        RunResult r = interp.run();
        instrs += r.instructions;
        benchmark::DoNotOptimize(r.returnValue);
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_FunctionalSimulation", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_FunctionalSimulation)->Unit(benchmark::kMillisecond);

void
BM_BytecodeRun(benchmark::State &state)
{
    // BM_FunctionalSimulation on the bytecode backend: same workload,
    // same artifacts, threaded dispatch over the lowered image.  The
    // image is built once (executors are reusable across runs), so
    // the loop measures pure execution rate; the gap to
    // BM_FunctionalSimulation is the whole bytecode win.
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    Module m = compileWorkload(w.source, baseMachine(), o);
    std::unique_ptr<Executor> exec = makeExecutor(m);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        RunResult r = exec->run();
        instrs += r.instructions;
        benchmark::DoNotOptimize(r.returnValue);
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_BytecodeRun", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_BytecodeRun)->Unit(benchmark::kMillisecond);

void
BM_TimingSimulation(benchmark::State &state)
{
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    Interpreter trace_run(m);
    TraceBuffer trace;
    trace_run.run("main", &trace);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        IssueEngine engine(mc);
        trace.replay(engine);
        instrs += engine.instructions();
        benchmark::DoNotOptimize(engine.baseCycles());
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_TimingSimulation", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_TimingSimulation)->Unit(benchmark::kMillisecond);

void
BM_LiveRun(benchmark::State &state)
{
    // The timing path every sweep cell takes: each iteration
    // re-executes the workload functionally while timing it
    // (runOnMachine).
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        RunOutcome out = runOnMachine(m, mc);
        instrs += out.instructions;
        benchmark::DoNotOptimize(out.cycles);
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_LiveRun", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_LiveRun)->Unit(benchmark::kMillisecond);

void
BM_ProfiledLiveRun(benchmark::State &state)
{
    // BM_LiveRun with the cycle profiler on: the per-pc counter
    // updates are the only delta, so the gap to BM_LiveRun is the
    // whole observability cost (profiling off must stay at BM_LiveRun
    // speed — it is a single predictable branch).
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig mc = idealSuperscalar(4);
    Module m = compileWorkload(w.source, mc, o);
    RunTelemetryOptions t;
    t.collectProfile = true;
    std::uint64_t instrs = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        RunOutcome out = runOnMachine(m, mc, t);
        instrs += out.instructions;
        benchmark::DoNotOptimize(out.pcCounters.data());
    }
    const double wall = secondsSince(t0);
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
    recordRateSample(
        "BM_ProfiledLiveRun", "instr_per_s",
        wall > 0.0 ? static_cast<double>(instrs) / wall : 0.0, state);
}
BENCHMARK(BM_ProfiledLiveRun)->Unit(benchmark::kMillisecond);

void
BM_CompileCacheHit(benchmark::State &state)
{
    // Steady-state cost of a repeat request (one prefix compile,
    // then all hits).  A hit is not a bare lookup: it copies the
    // cached prefix and schedules the copy for the machine.
    const Workload &w = wl();
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    cache.compile(w, idealSuperscalar(4), o);
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        std::shared_ptr<const Module> m =
            cache.compile(w, idealSuperscalar(4), o);
        benchmark::DoNotOptimize(m.get());
    }
    const double wall = secondsSince(t0);
    state.counters["hit_rate"] =
        static_cast<double>(cache.hits()) /
        static_cast<double>(cache.hits() + cache.misses());
    // Hits per second, not raw loop wall time: a rate stays
    // comparable across runs whose iteration counts differ.
    recordRateSample(
        "BM_CompileCacheHit", "hits_per_s",
        wall > 0.0 ? static_cast<double>(state.iterations()) / wall
                   : 0.0,
        state);
}
BENCHMARK(BM_CompileCacheHit);

void
BM_ParallelSweep(benchmark::State &state)
{
    // A figure-4-5-shaped sweep slice (2 workloads x degrees 1..4) at
    // Arg jobs (0 = all cores).  A fresh Study per iteration keeps
    // the compile cache cold, so this measures the full
    // compile+simulate pipeline under the worker pool.
    const std::vector<const Workload *> wls{
        &workloadByName("yacc"), &workloadByName("whet")};
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        Study study(static_cast<int>(state.range(0)));
        std::vector<double> cells =
            study.runner().map<double>(wls.size() * 4,
                                       [&](std::size_t i) {
                return study.speedup(
                    *wls[i / 4],
                    idealSuperscalar(static_cast<int>(i % 4) + 1));
            });
        benchmark::DoNotOptimize(cells.data());
    }
    const double wall = secondsSince(t0);
    state.counters["jobs"] = static_cast<double>(
        SweepRunner(static_cast<int>(state.range(0))).jobs());
    recordRateSample(
        "BM_ParallelSweep/" + std::to_string(state.range(0)),
        "cells_per_s",
        wall > 0.0
            ? static_cast<double>(state.iterations()) * 8.0 / wall
            : 0.0,
        state);
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void
BM_ParallelSweepTraced(benchmark::State &state)
{
    // BM_ParallelSweep with a flight-recorder session armed around
    // every iteration (the recording is drained and discarded): the
    // tracing-on overhead that scripts/check.sh holds under its 2%
    // soft budget.
    const std::vector<const Workload *> wls{
        &workloadByName("yacc"), &workloadByName("whet")};
    std::size_t spans = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        trace::Recorder::instance().start();
        Study study(static_cast<int>(state.range(0)));
        std::vector<double> cells =
            study.runner().map<double>(wls.size() * 4,
                                       [&](std::size_t i) {
                return study.speedup(
                    *wls[i / 4],
                    idealSuperscalar(static_cast<int>(i % 4) + 1));
            });
        benchmark::DoNotOptimize(cells.data());
        trace::Recording rec = trace::Recorder::instance().stop();
        spans += rec.spans.size();
        benchmark::DoNotOptimize(rec.spans.data());
    }
    const double wall = secondsSince(t0);
    state.counters["jobs"] = static_cast<double>(
        SweepRunner(static_cast<int>(state.range(0))).jobs());
    state.counters["spans"] = static_cast<double>(
        state.iterations() > 0
            ? spans / static_cast<std::size_t>(state.iterations())
            : 0);
    recordRateSample(
        "BM_ParallelSweepTraced/" + std::to_string(state.range(0)),
        "cells_per_s",
        wall > 0.0
            ? static_cast<double>(state.iterations()) * 8.0 / wall
            : 0.0,
        state);
}
BENCHMARK(BM_ParallelSweepTraced)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void
BM_WhatIfQuery(benchmark::State &state)
{
    // One analytic analyze() over a prebuilt dependence graph, to be
    // read against BM_LiveRun (the exact timing run of the same
    // workload and machine).
    const Workload &w = wl();
    const CompileOptions o = defaultCompileOptions(w);
    const MachineConfig machine = idealSuperscalar(4);
    Study study(1);
    const DepGraph graph = study.dependenceGraph(w, machine, o);
    std::uint64_t nodes = 0;
    const auto t0 = BenchClock::now();
    for (auto _ : state) {
        AnalyticResult a = graph.analyze(machine);
        nodes += a.instructions;
        benchmark::DoNotOptimize(a.minorCycles);
    }
    const double wall = secondsSince(t0);
    recordRateSample(
        "BM_WhatIfQuery", "instr_per_s",
        wall > 0.0 ? static_cast<double>(nodes) / wall : 0.0, state);
}
BENCHMARK(BM_WhatIfQuery)->Unit(benchmark::kMillisecond);

void
BM_ListScheduler(benchmark::State &state)
{
    const Workload &w = workloadByName("linpack");
    CompileOptions o = defaultCompileOptions(w);
    o.unroll.factor = 10; // big blocks stress the scheduler
    for (auto _ : state) {
        Module m = compileWorkload(w.source, idealSuperscalar(8), o);
        benchmark::DoNotOptimize(m.functions().size());
    }
}
BENCHMARK(BM_ListScheduler)->Unit(benchmark::kMillisecond);

} // namespace

// BENCHMARK_MAIN() expanded so the recorded samples can be flushed
// after every benchmark (and all its repetitions) has run: one
// bench-v2 datapoint per label per invocation of this binary.
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (const char *path = trajectoryPath())
        bench::flushSamples("throughput", path);
    return 0;
}
