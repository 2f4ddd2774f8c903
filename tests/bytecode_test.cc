/**
 * Differential oracle for the bytecode executor: the threaded-
 * dispatch VM must produce the same observable artifacts as its
 * oracle, the IR-walk interpreter — full-width DynInstr streams,
 * checksums, trap records, deadline-poll instants, fault-injection
 * draws, and RunOutcome stats trees — across the whole benchmark
 * suite, at every sweep job count, on the trap paths, and on frames
 * past the 16-bit virtual register range.  docs/bytecode.md
 * documents the contract this file enforces.
 */

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "core/study/experiment.hh"
#include "ir/builder.hh"
#include "sim/bytecode.hh"
#include "sim/cancel.hh"
#include "sim/exec.hh"
#include "sim/interp.hh"
#include "support/diag.hh"
#include "support/faultinject.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

Module
compileDefault(const std::string &name, const MachineConfig &machine)
{
    const Workload &w = workloadByName(name);
    CompileOptions o = defaultCompileOptions(w);
    return compileWorkload(w.source, machine, o);
}

/** What one execution reports about one functional run (its
 *  dynamic stream goes to the sink the caller passes). */
struct BackendRun
{
    RunResult result;
    std::uint64_t fpBits = 0;
    bool hasFp = false;
};

/** Run main() on `exec` (the VM or the interpreter). */
template <class Exec>
BackendRun
runOn(Exec &exec, const Module &module, TraceSink *sink)
{
    BackendRun out;
    out.result = exec.run("main", sink);
    if (!out.result.trapped() && module.findGlobal("result_fp")) {
        out.fpBits = exec.memory().readGlobal(module, "result_fp");
        out.hasFp = true;
    }
    return out;
}

BackendRun
runInterp(const Module &module, TraceSink *sink,
          InterpOptions options = {})
{
    Interpreter interp(module, options);
    return runOn(interp, module, sink);
}

BackendRun
runVm(const Module &module, TraceSink *sink, InterpOptions options = {})
{
    return runOn(*makeExecutor(module, options), module, sink);
}

/** Checks a stream against a buffered reference as it is produced,
 *  record by record, on every DynInstr field. */
class StreamComparator final : public TraceSink
{
  public:
    explicit StreamComparator(const std::vector<DynInstr> &expected)
        : expected_(expected)
    {
    }

    void
    emit(const DynInstr &di) override
    {
        if ((at_ >= expected_.size() || di != expected_[at_]) &&
            mismatches_++ == 0)
            first_ = at_;
        ++at_;
    }

    /** Expect the whole stream matched; names the first divergent
     *  record otherwise. */
    void
    expectIdentical() const
    {
        EXPECT_EQ(at_, expected_.size()) << "stream lengths differ";
        EXPECT_EQ(mismatches_, 0u)
            << mismatches_ << " divergent records of " << at_
            << ", first at index " << first_;
    }

  private:
    const std::vector<DynInstr> &expected_;
    std::size_t at_ = 0;
    std::size_t mismatches_ = 0;
    std::size_t first_ = 0;
};

/** The VM and its oracle on one module: the interpreter's stream
 *  buffered as the reference, the VM's compared against it record
 *  by record. */
struct DifferentialRun
{
    BackendRun interp;
    BackendRun bytecode;
};

DifferentialRun
runBoth(const Module &module, InterpOptions options = {})
{
    TraceBuffer reference;
    DifferentialRun d;
    d.interp = runInterp(module, &reference, options);
    StreamComparator compare(reference.trace());
    d.bytecode = runVm(module, &compare, options);
    compare.expectIdentical();
    return d;
}

void
expectResultsIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.returnValue, b.returnValue);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.classCounts, b.classCounts);
    EXPECT_EQ(a.trapped(), b.trapped());
    if (a.trapped() && b.trapped()) {
        EXPECT_EQ(a.trap.code, b.trap.code);
        EXPECT_EQ(a.trap.function, b.trap.function);
        EXPECT_EQ(a.trap.instruction, b.trap.instruction);
        EXPECT_EQ(a.trap.format(), b.trap.format());
    }
}

class BackendDifferentialTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BackendDifferentialTest, TraceChecksumAndMixIdentical)
{
    Module m = compileDefault(GetParam(), idealSuperscalar(4));
    const DifferentialRun d = runBoth(m);

    expectResultsIdentical(d.interp.result, d.bytecode.result);
    EXPECT_EQ(d.interp.result.returnValue,
              static_cast<std::uint64_t>(
                  workloadByName(GetParam()).expected));
    ASSERT_EQ(d.interp.hasFp, d.bytecode.hasFp);
    if (d.interp.hasFp) {
        EXPECT_EQ(d.interp.fpBits, d.bytecode.fpBits);
    }
}

TEST_P(BackendDifferentialTest, SinkDoesNotChangeTheCounts)
{
    // Calling-convention moves are bookkeeping the VM and the
    // interpreter count whether or not anything observes the stream,
    // so a sink-less run reports exactly what a traced run does, and
    // its class mix is the per-class histogram of the traced records.
    Module m = compileDefault(GetParam(), idealSuperscalar(4));
    auto expectSinkFree = [](const char *who, auto run) {
        TraceBuffer stream;
        const RunResult traced = run(&stream);
        const RunResult plain = run(nullptr);
        ClassCounts streamed{};
        for (const DynInstr &di : stream.trace())
            ++streamed[static_cast<std::size_t>(di.cls())];
        EXPECT_EQ(plain.instructions, traced.instructions) << who;
        EXPECT_EQ(plain.classCounts, traced.classCounts) << who;
        EXPECT_EQ(traced.instructions, stream.size()) << who;
        EXPECT_EQ(plain.classCounts, streamed) << who;
    };
    expectSinkFree("interp", [&](TraceSink *sink) {
        return runInterp(m, sink).result;
    });
    expectSinkFree("bytecode", [&](TraceSink *sink) {
        return runVm(m, sink).result;
    });
}

/** runOnMachine's collectStats path with the interpreter executing:
 *  the same engine, cache model and stats tree. */
RunOutcome
runOnMachineInterp(const Module &module, const MachineConfig &machine,
                   const RunTelemetryOptions &telemetry,
                   const CompileTelemetry *compile)
{
    IssueEngine engine(machine);
    if (telemetry.collectProfile)
        engine.enableProfile(module.pcCount());
    CacheSink dcache{CacheConfig{}};
    TeeSink tee;
    tee.addSink(&engine);
    tee.addSink(&dcache);
    Interpreter interp(module);
    const RunResult r = interp.run("main", &tee);

    RunOutcome out;
    out.checksum = static_cast<std::int64_t>(r.returnValue);
    out.instructions = r.instructions;
    out.cycles = engine.baseCycles();
    if (telemetry.collectProfile)
        out.pcCounters = engine.profileCounters();
    out.stats = runStatsTree(out, engine, dcache, r.classCounts, compile);
    return out;
}

TEST_P(BackendDifferentialTest, StatsTreeIdentical)
{
    // The full RunOutcome stats tree — issue engine, cache model,
    // class mix, compile telemetry — from runOnMachine on the VM and
    // from the same pipeline on the interpreter.  Json equality is
    // structural and ordered, so this is as strong as comparing the
    // serialized bytes.
    const Workload &w = workloadByName(GetParam());
    CompileOptions o = defaultCompileOptions(w);
    CompileTelemetry compile;
    Module m = compileWorkload(w.source, idealSuperscalar(4), o,
                               &compile);
    RunTelemetryOptions t;
    t.collectStats = true;
    t.collectProfile = true;

    RunOutcome a = runOnMachineInterp(m, idealSuperscalar(4), t,
                                      &compile);
    RunOutcome b = runOnMachine(m, idealSuperscalar(4), t, &compile);

    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_TRUE(a.stats == b.stats)
        << "stats trees diverge:\n"
        << a.stats.dump(2) << "\nvs\n"
        << b.stats.dump(2);
    EXPECT_EQ(a.pcCounters.size(), b.pcCounters.size());
    for (std::size_t i = 0; i < a.pcCounters.size(); ++i) {
        EXPECT_EQ(a.pcCounters[i].issued, b.pcCounters[i].issued)
            << "pc " << i;
        EXPECT_EQ(a.pcCounters[i].stallSlots,
                  b.pcCounters[i].stallSlots)
            << "pc " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BackendDifferentialTest,
                         ::testing::Values("ccom", "grr", "linpack",
                                           "livermore", "met",
                                           "stanford", "whet", "yacc"),
                         [](const auto &info) { return info.param; });

TEST(BackendSweepTest, SweepCellsIdenticalAtJobs128)
{
    // The sweep path (compile cache, worker pool) at jobs 1/2/8:
    // every cell's speedup must be bit-identical to the interpreter
    // streaming into the same engine — the engine consumes the same
    // stream, so the cycle counts are exact doubles, not
    // approximations.
    auto interpCycles = [](const Workload &w,
                           const MachineConfig &machine) {
        const Module m = compileWorkload(w.source, machine,
                                         defaultCompileOptions(w));
        IssueEngine engine(machine);
        Interpreter interp(m);
        EXPECT_FALSE(interp.run("main", &engine).trapped()) << w.name;
        return engine.baseCycles();
    };
    auto machineOf = [](std::size_t i) {
        return idealSuperscalar(static_cast<int>(i % 4) + 1);
    };
    std::vector<double> oracle;
    for (std::size_t i = 0; i < 8; ++i) {
        const Workload &w = allWorkloads()[i];
        oracle.push_back(interpCycles(w, baseMachine()) /
                         interpCycles(w, machineOf(i)));
    }
    for (int jobs : {1, 2, 8}) {
        Study study(jobs);
        const std::vector<double> cells =
            study.runner().map<double>(8, [&](std::size_t i) {
                return study.speedup(allWorkloads()[i], machineOf(i));
            });
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(cells[i], oracle[i])
                << allWorkloads()[i].name << " at jobs " << jobs;
    }
}

// ------------------------------------------------------------------
// Trap paths: the structured records must match field for field.

Module
compileRaw(const std::string &source)
{
    Module m = compileToIr(source);
    OptimizeOptions oo;
    oo.level = OptLevel::None;
    optimizeModule(m, baseMachine(), oo);
    return m;
}

void
expectSameTrap(const Module &m, ErrCode code, InterpOptions options = {})
{
    const DifferentialRun d = runBoth(m, options);
    ASSERT_TRUE(d.interp.result.trapped());
    EXPECT_EQ(d.interp.result.trap.code, code);
    expectResultsIdentical(d.interp.result, d.bytecode.result);
}

TEST(BackendTrapTest, DivideByZeroInCallee)
{
    Module m = compileRaw(R"(
        var int zero;
        func div(int a) : int { return a / zero; }
        func main() : int { return div(7); })");
    expectSameTrap(m, ErrCode::TrapDivideByZero);
}

TEST(BackendTrapTest, OutOfBoundsStore)
{
    Module m = compileRaw(R"(
        var int a[4];
        func main() : int {
            var int i;
            for (i = 0; i < 100000000; i = i + 1) { a[i] = i; }
            return a[0];
        })");
    expectSameTrap(m, ErrCode::TrapOutOfBoundsMemory);
}

TEST(BackendTrapTest, FuelExhaustionAtTheSameInstruction)
{
    Module m = compileRaw(R"(
        func main() : int {
            var int x;
            while (1) { x = x + 1; }
            return x;
        })");
    InterpOptions options;
    options.fuel = 100000;
    expectSameTrap(m, ErrCode::TrapFuelExhausted, options);
}

TEST(BackendTrapTest, CallDepthExceeded)
{
    Module m = compileRaw(R"(
        func down(int n) : int { return down(n + 1); }
        func main() : int { return down(0); })");
    const DifferentialRun d = runBoth(m);
    ASSERT_TRUE(d.interp.result.trapped());
    expectResultsIdentical(d.interp.result, d.bytecode.result);
}

TEST(BackendTrapTest, MissingEntryFunction)
{
    Module m = compileRaw("func main() : int { return 1; }");
    Interpreter a(m);
    std::unique_ptr<Executor> b = makeExecutor(m);
    RunResult ra = a.run("nope");
    RunResult rb = b->run("nope");
    ASSERT_TRUE(ra.trapped());
    EXPECT_EQ(ra.trap.code, ErrCode::TrapNoEntry);
    expectResultsIdentical(ra, rb);
}

TEST(BackendDeadlineTest, PollsAtTheSameInstant)
{
    // An already-expired deadline fires at the first poll point; the
    // VM and the interpreter must poll on the same instruction-count
    // cadence (cancel::kDeadlinePollInterval), so the trap records
    // agree on the instruction at which the deadline was noticed.
    Module m = compileRaw(R"(
        func main() : int {
            var int i;
            var int s;
            for (i = 0; i < 10000000; i = i + 1) { s = s + i; }
            return s;
        })");
    RunResult ra, rb;
    {
        cancel::ScopedCellDeadline deadline(1e-9);
        Interpreter e(m);
        ra = e.run();
    }
    {
        cancel::ScopedCellDeadline deadline(1e-9);
        std::unique_ptr<Executor> e = makeExecutor(m);
        rb = e->run();
    }
    ASSERT_TRUE(ra.trapped());
    EXPECT_EQ(ra.trap.code, ErrCode::TrapDeadlineExceeded);
    EXPECT_EQ(ra.trap.instruction % cancel::kDeadlinePollInterval,
              0u);
    expectResultsIdentical(ra, rb);
}

TEST(BackendFaultTest, InjectionDrawsAlign)
{
    // Seeded fault injection draws at the shared "interp" site once
    // per poll interval.  An injected E0409 is a DiagException the
    // *sweep* layer contains, so here it escapes run() — the VM and
    // the interpreter must escape identically: same message, same
    // single injection per run.  (That the poll instants line up in
    // instruction count is proven by BackendDeadlineTest.)
    Module m = compileRaw(R"(
        func main() : int {
            var int i;
            var int s;
            for (i = 0; i < 10000000; i = i + 1) { s = s + i; }
            return s;
        })");
    std::string messages[2];
    std::uint64_t injected[2] = {0, 0};
    auto runFaulty = [&](auto &exec, int slot) {
        fault::reset();
        ASSERT_TRUE(fault::configure("interp:trap:0.02:1234"));
        const std::uint64_t before = fault::injectedCount();
        try {
            (void)exec.run();
        } catch (const DiagException &diag) {
            messages[slot] = diag.what();
        }
        injected[slot] = fault::injectedCount() - before;
    };
    Interpreter interp(m);
    runFaulty(interp, 0);
    runFaulty(*makeExecutor(m), 1);
    fault::reset();
    ASSERT_FALSE(messages[0].empty())
        << "rate 0.02 over ~2441 polls should have fired";
    EXPECT_EQ(messages[0], messages[1]);
    EXPECT_EQ(injected[0], 1u);
    EXPECT_EQ(injected[1], 1u);
}

// ------------------------------------------------------------------
// The executor itself.

TEST(BackendSeamTest, ExecutorReusableAfterTrap)
{
    // Like the interpreter, a VM survives a trapped run and can be
    // reused — the sweep layer relies on this for retries.
    Module m = compileRaw(R"(
        var int zero;
        func main() : int { return 7 / zero; })");
    std::unique_ptr<Executor> exec = makeExecutor(m);
    RunResult first = exec->run();
    ASSERT_TRUE(first.trapped());
    RunResult second = exec->run();
    ASSERT_TRUE(second.trapped());
    EXPECT_EQ(first.trap.format(), second.trap.format());
    EXPECT_EQ(first.instructions, second.instructions);
}

TEST(BackendSeamTest, LoweredImageShapeIsSane)
{
    Module m = compileDefault("whet", idealSuperscalar(4));
    const BcImage image = lowerModule(m);
    EXPECT_GT(image.codeBytes(), 0u);
    EXPECT_EQ(image.funcs.size(), m.functions().size());
}

// ------------------------------------------------------------------
// Frame sizes: an allocated frame is the register layout, however
// many virtual registers the frontend used.

/** `statements` copies of one accumulating statement, straight-line:
 *  each costs the frontend a handful of fresh virtual registers. */
std::string
straightLineSource(int statements)
{
    std::string src = R"(
        var int a[16];
        func main() : int {
            var int i;
            var int k;
            var int s;
            for (i = 0; i < 16; i = i + 1) { a[i] = i * 3 + 1; }
            i = 5;
            k = 7;
            s = 0;
)";
    for (int n = 0; n < statements; ++n)
        src += "s = s + a[i % 16] * k;\n";
    src += "return s; }\n";
    return src;
}

TEST(BackendLargeFrameTest, PastSixteenBitVirtualRegistersRunsOnTheVm)
{
    Module m = compileToIr(straightLineSource(11000));
    ASSERT_GT(m.function(m.findFunction("main")).numVirtRegs, 65535u);
    OptimizeOptions oo;
    oo.level = OptLevel::None;
    optimizeModule(m, baseMachine(), oo);

    EXPECT_NO_THROW((void)lowerModule(m));
    const DifferentialRun d = runBoth(m);
    expectResultsIdentical(d.interp.result, d.bytecode.result);
    // a[5] * k, accumulated once per statement.
    EXPECT_EQ(d.bytecode.result.returnValue, 11000u * 16u * 7u);
}

TEST(BackendLargeFrameTest, UnencodableFrameThrowsE0502)
{
    // Only a module built through the library API can carry a frame
    // past the 16-bit encoding; the executor refuses it by name
    // instead of running it anywhere else.
    Module m;
    Function &f = m.function(m.addFunction("huge"));
    f.returnsValue = true;
    IrBuilder b(f);
    f.numVirtRegs = 70000;
    const Reg v = b.li(1);
    b.ret(v);
    try {
        (void)makeExecutor(m);
        ADD_FAILURE() << "a 70,000-register frame lowered";
    } catch (const DiagException &e) {
        EXPECT_EQ(e.code(), ErrCode::BytecodeLoweringFailed);
        EXPECT_NE(std::string(e.what()).find("E0502"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("'huge'"),
                  std::string::npos);
    }
}

} // namespace
} // namespace ilp
