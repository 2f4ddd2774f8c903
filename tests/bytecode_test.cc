/**
 * Differential oracle for the bytecode execution backend: the
 * IR-walk interpreter and the threaded-dispatch VM must produce
 * identical observable artifacts — full-width DynInstr streams,
 * checksums, trap records, deadline-poll instants, fault-injection
 * draws, and RunOutcome stats trees — across the whole benchmark
 * suite, at every sweep job count, and on the trap paths.
 * docs/bytecode.md documents the contract this file enforces.
 */

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "core/study/experiment.hh"
#include "sim/bytecode.hh"
#include "sim/cancel.hh"
#include "sim/exec.hh"
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

/** What one backend reports about one functional execution (its
 *  dynamic stream goes to the sink the caller passes). */
struct BackendRun
{
    RunResult result;
    std::uint64_t fpBits = 0;
    bool hasFp = false;
};

BackendRun
runBackend(const Module &module, ExecBackend backend, TraceSink *sink,
           InterpOptions options = {})
{
    BackendRun out;
    std::unique_ptr<Executor> exec =
        makeExecutor(module, backend, options);
    // The suite's modules must all lower: a silent fallback here
    // would turn the differential test into interp-vs-interp.
    EXPECT_EQ(exec->backend(), backend);
    out.result = exec->run("main", sink);
    if (!out.result.trapped() && module.findGlobal("result_fp")) {
        out.fpBits = exec->memory().readGlobal(module, "result_fp");
        out.hasFp = true;
    }
    return out;
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

/** Both backends on one module: the interpreter's stream buffered as
 *  the reference, the VM's compared against it record by record. */
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
    d.interp =
        runBackend(module, ExecBackend::Interp, &reference, options);
    StreamComparator compare(reference.trace());
    d.bytecode =
        runBackend(module, ExecBackend::Bytecode, &compare, options);
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
    // Calling-convention moves are bookkeeping the backends count
    // whether or not anything observes the stream, so a sink-less run
    // reports exactly what a traced run does.
    Module m = compileDefault(GetParam(), idealSuperscalar(4));
    for (ExecBackend backend :
         {ExecBackend::Interp, ExecBackend::Bytecode}) {
        ClassProfileSink profile;
        const RunResult traced =
            runBackend(m, backend, &profile).result;
        const RunResult plain = runBackend(m, backend, nullptr).result;
        EXPECT_EQ(plain.instructions, traced.instructions)
            << execBackendName(backend);
        EXPECT_EQ(plain.classCounts, traced.classCounts)
            << execBackendName(backend);
        EXPECT_EQ(traced.instructions, profile.total())
            << execBackendName(backend);
    }
}

TEST_P(BackendDifferentialTest, StatsTreeIdentical)
{
    // The full RunOutcome stats tree — issue engine, cache model,
    // class mix, compile telemetry — through the default pipeline
    // under each backend.  Json equality is structural and ordered,
    // so this is as strong as comparing the serialized bytes.
    const Workload &w = workloadByName(GetParam());
    CompileOptions o = defaultCompileOptions(w);
    CompileTelemetry compile;
    Module m = compileWorkload(w.source, idealSuperscalar(4), o,
                               &compile);
    RunTelemetryOptions t;
    t.collectStats = true;
    t.collectProfile = true;

    setDefaultExecBackend(ExecBackend::Interp);
    RunOutcome a = runOnMachine(m, idealSuperscalar(4), t, &compile);
    setDefaultExecBackend(ExecBackend::Bytecode);
    RunOutcome b = runOnMachine(m, idealSuperscalar(4), t, &compile);
    setDefaultExecBackend(std::nullopt);

    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_TRUE(a.stats.root == b.stats.root)
        << "stats trees diverge:\n"
        << a.stats.root.dump(2) << "\nvs\n"
        << b.stats.root.dump(2);
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
    // every cell's speedup must be bit-identical across backends —
    // the engine consumes the same stream, so the cycle counts are
    // exact doubles, not approximations.
    for (int jobs : {1, 2, 8}) {
        std::vector<double> perBackend[2];
        int bi = 0;
        for (ExecBackend backend :
             {ExecBackend::Interp, ExecBackend::Bytecode}) {
            setDefaultExecBackend(backend);
            Study study(jobs);
            perBackend[bi++] = study.runner().map<double>(
                8, [&](std::size_t i) {
                    return study.speedup(
                        allWorkloads()[i],
                        idealSuperscalar(static_cast<int>(i % 4) +
                                         1));
                });
        }
        setDefaultExecBackend(std::nullopt);
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(perBackend[0][i], perBackend[1][i])
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
    std::unique_ptr<Executor> a =
        makeExecutor(m, ExecBackend::Interp);
    std::unique_ptr<Executor> b =
        makeExecutor(m, ExecBackend::Bytecode);
    RunResult ra = a->run("nope");
    RunResult rb = b->run("nope");
    ASSERT_TRUE(ra.trapped());
    EXPECT_EQ(ra.trap.code, ErrCode::TrapNoEntry);
    expectResultsIdentical(ra, rb);
}

TEST(BackendDeadlineTest, PollsAtTheSameInstant)
{
    // An already-expired deadline fires at the first poll point; the
    // two backends must poll on the same instruction-count cadence
    // (cancel::kDeadlinePollInterval), so the trap records agree on
    // the instruction at which the deadline was noticed.
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
        std::unique_ptr<Executor> e =
            makeExecutor(m, ExecBackend::Interp);
        ra = e->run();
    }
    {
        cancel::ScopedCellDeadline deadline(1e-9);
        std::unique_ptr<Executor> e =
            makeExecutor(m, ExecBackend::Bytecode);
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
    // *sweep* layer contains, so here it escapes run() — both
    // backends must escape identically: same message, same single
    // injection per run.  (That the poll instants line up in
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
    int bi = 0;
    for (ExecBackend backend :
         {ExecBackend::Interp, ExecBackend::Bytecode}) {
        fault::reset();
        ASSERT_TRUE(fault::configure("interp:trap:0.02:1234"));
        const std::uint64_t before = fault::injectedCount();
        std::unique_ptr<Executor> e = makeExecutor(m, backend);
        try {
            (void)e->run();
        } catch (const DiagException &diag) {
            messages[bi] = diag.what();
        }
        injected[bi] = fault::injectedCount() - before;
        ++bi;
    }
    fault::reset();
    ASSERT_FALSE(messages[0].empty())
        << "rate 0.02 over ~2441 polls should have fired";
    EXPECT_EQ(messages[0], messages[1]);
    EXPECT_EQ(injected[0], 1u);
    EXPECT_EQ(injected[1], 1u);
}

// ------------------------------------------------------------------
// Seam plumbing.

TEST(BackendSeamTest, ParseAndName)
{
    EXPECT_EQ(parseExecBackend("interp"), ExecBackend::Interp);
    EXPECT_EQ(parseExecBackend("bytecode"), ExecBackend::Bytecode);
    EXPECT_EQ(parseExecBackend("jit"), std::nullopt);
    EXPECT_STREQ(execBackendName(ExecBackend::Interp), "interp");
    EXPECT_STREQ(execBackendName(ExecBackend::Bytecode), "bytecode");
}

TEST(BackendSeamTest, OverrideWinsOverDefault)
{
    setDefaultExecBackend(ExecBackend::Interp);
    EXPECT_EQ(defaultExecBackend(), ExecBackend::Interp);
    Module m = compileRaw("func main() : int { return 42; }");
    std::unique_ptr<Executor> exec = makeExecutor(m);
    EXPECT_EQ(exec->backend(), ExecBackend::Interp);
    setDefaultExecBackend(std::nullopt);
}

TEST(BackendSeamTest, ExecutorReusableAfterTrap)
{
    // Like the interpreter, a VM survives a trapped run and can be
    // reused — the sweep layer relies on this for retries.
    Module m = compileRaw(R"(
        var int zero;
        func main() : int { return 7 / zero; })");
    std::unique_ptr<Executor> exec =
        makeExecutor(m, ExecBackend::Bytecode);
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
    std::optional<BcImage> image = lowerModule(m);
    ASSERT_TRUE(image.has_value());
    EXPECT_GT(image->codeBytes(), 0u);
    EXPECT_EQ(image->funcs.size(), m.functions().size());
}

} // namespace
} // namespace ilp
