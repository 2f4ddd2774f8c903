/**
 * End-to-end trap containment: MT programs that fault at runtime
 * produce a structured Trap record through both the bare interpreter
 * and the issue-engine timing path (runOnMachine), with the process
 * very much alive afterwards.
 */

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "sim/trap.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

/** Compile at -O0 so the faulting operations survive to execution. */
Module
compileRaw(const std::string &source)
{
    Module m = compileToIr(source);
    OptimizeOptions oo;
    oo.level = OptLevel::None;
    optimizeModule(m, baseMachine(), oo);
    return m;
}

TEST(TrapTest, DivideByZeroNamesTheFaultingFunction)
{
    Module m = compileRaw(R"(
        var int zero;
        func div(int a) : int { return a / zero; }
        func main() : int { return div(7); })");
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapDivideByZero);
    EXPECT_EQ(r.trap.function, "div"); // innermost frame, not main
    EXPECT_GT(r.trap.instruction, 0u);
    EXPECT_EQ(r.trap.format(),
              "trap[E0401] in 'div': integer division by zero (after " +
                  std::to_string(r.trap.instruction) +
                  " instructions)");
}

TEST(TrapTest, RemainderByZeroTrapsToo)
{
    Module m = compileRaw(R"(
        var int zero;
        func main() : int { return 5 % zero; })");
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapDivideByZero);
}

TEST(TrapTest, OutOfBoundsStoreTraps)
{
    Module m = compileRaw(R"(
        var int a[4];
        func main() : int {
            var int i;
            for (i = 0; i < 100000000; i = i + 1) { a[i] = i; }
            return a[0];
        })");
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapOutOfBoundsMemory);
    EXPECT_EQ(r.trap.function, "main");
    EXPECT_NE(r.trap.message.find("out of range"), std::string::npos);
}

TEST(TrapTest, FuelExhaustionIsATrapNotADeadProcess)
{
    Module m = compileRaw(R"(
        func main() : int {
            var int x;
            while (1) { x = x + 1; }
            return x;
        })");
    InterpOptions opts;
    opts.fuel = 50000;
    Interpreter interp(m, opts);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapFuelExhausted);
    EXPECT_EQ(r.trap.function, "main");
    // The run still reports what it executed before the fault.
    EXPECT_GE(r.instructions, 50000u);
}

TEST(TrapTest, TrapFlowsThroughTheIssueEngine)
{
    // runOnMachine drives the interpreter with the timing sink
    // attached; a trap must surface in the RunOutcome, not kill the
    // run, and cycles/instructions must cover the pre-fault stream.
    Module m = compileRaw(R"(
        var int zero;
        func main() : int { return 1 / zero; })");
    RunOutcome out = runOnMachine(m, idealSuperscalar(4));
    ASSERT_TRUE(out.trapped());
    EXPECT_EQ(out.trap.code, ErrCode::TrapDivideByZero);
    EXPECT_EQ(out.trap.function, "main");
    EXPECT_GT(out.instructions, 0u);
    EXPECT_GT(out.cycles, 0.0);
}

TEST(TrapTest, TrappedRunReportsNoChecksums)
{
    // RunResult documents returnValue as meaningless after a trap, so
    // the outcome must not launder it (or a stale result_fp read)
    // into checksum/fpChecksum.  Regression: runOnMachine used to
    // copy both from the aborted run.
    Module m = compileRaw(R"(
        var real result_fp;
        var int zero;
        func main() : int {
            result_fp = 3.25;
            return 1 / zero;
        })");
    RunOutcome out = runOnMachine(m, idealSuperscalar(4));
    ASSERT_TRUE(out.trapped());
    EXPECT_EQ(out.checksum, 0);
    EXPECT_EQ(out.fpChecksum, 0.0);
}

TEST(TrapTest, TrapWithStatsCollectionStaysContained)
{
    Module m = compileRaw(R"(
        var int zero;
        func main() : int { return 1 / zero; })");
    RunTelemetryOptions telemetry;
    telemetry.collectStats = true;
    RunOutcome out = runOnMachine(m, idealSuperscalar(2), telemetry);
    ASSERT_TRUE(out.trapped());
    // The stats tree still materializes for the partial run.
    EXPECT_FALSE(out.stats.isNull());
}

TEST(TrapTest, MissingEntryIsATrap)
{
    Module m;
    m.addFunction("not_main");
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapNoEntry);
}

TEST(TrapTest, TrapToDiagCarriesTheCode)
{
    Trap t{ErrCode::TrapBadJump, "f", "jump to invalid block 9", 12};
    Diag d = t.toDiag();
    EXPECT_EQ(d.severity, Severity::Error);
    EXPECT_EQ(d.code, ErrCode::TrapBadJump);
    EXPECT_NE(d.message.find("'f'"), std::string::npos);
}

TEST(TrapTest, SetFunctionOnlyFillsTheInnermostFrame)
{
    TrapException e(Trap{ErrCode::TrapDivideByZero, "", "div by 0"});
    e.setFunction("inner");
    e.setFunction("outer"); // must not overwrite
    EXPECT_EQ(e.trap().function, "inner");
}

} // namespace
} // namespace ilp
