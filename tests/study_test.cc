/** Tests for the experiment harness and its paper-level invariants. */

#include <gtest/gtest.h>

#include "core/study/experiment.hh"
#include "core/machine/models.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

TEST(StudyTest, BaseMachineCyclesEqualInstructionCount)
{
    // §2.1: the base machine never stalls under unit latencies.
    Study study;
    const Workload &w = workloadByName("yacc");
    CompileOptions o = defaultCompileOptions(w);
    RunOutcome out = runWorkload(w, baseMachine(), o);
    EXPECT_DOUBLE_EQ(out.cycles,
                     static_cast<double>(out.instructions));
    EXPECT_DOUBLE_EQ(study.baseCycles(w, o), out.cycles);
}

TEST(StudyTest, SpeedupOfBaseIsOne)
{
    Study study;
    const Workload &w = workloadByName("ccom");
    EXPECT_NEAR(study.speedup(w, baseMachine()), 1.0, 1e-9);
}

TEST(StudyTest, SpeedupMonotoneInDegreeAndBounded)
{
    Study study;
    const Workload &w = workloadByName("whet");
    double prev = 1.0;
    for (int degree : {2, 4, 8}) {
        double s = study.speedup(w, idealSuperscalar(degree));
        EXPECT_GE(s, prev - 1e-6) << degree;
        EXPECT_LE(s, degree + 1e-9);
        prev = s;
    }
}

TEST(StudyTest, SupersymmetrySuperscalarAtLeastSuperpipelined)
{
    // §4.1/Figure 4-1: the superscalar machine is slightly ahead at
    // every degree; the gap closes as the degree rises.
    Study study;
    const Workload &w = workloadByName("met");
    for (int degree : {2, 4, 8}) {
        double ss = study.speedup(w, idealSuperscalar(degree));
        double sp = study.speedup(w, superpipelined(degree));
        EXPECT_GE(ss, sp - 1e-6) << degree;
        EXPECT_GT(sp, 1.0) << degree; // still better than the base
    }
}

TEST(StudyTest, AvailableParallelismInPaperRange)
{
    // §4.3: yacc lowest (~1.6), most programs ~2, numerics higher.
    Study study;
    auto par = [&](const char *name) {
        const Workload &w = workloadByName(name);
        return study.availableParallelism(
            w, defaultCompileOptions(w), 8);
    };
    double yacc = par("yacc");
    double linpack = par("linpack");
    EXPECT_GT(yacc, 1.2);
    EXPECT_LT(yacc, 2.6);
    EXPECT_GT(linpack, 2.0);
    EXPECT_LT(linpack, 4.5);
    EXPECT_GT(linpack, yacc); // "a factor of two difference" ordering
}

TEST(StudyTest, BaseCyclesMemoized)
{
    Study study;
    const Workload &w = workloadByName("grr");
    CompileOptions o = defaultCompileOptions(w);
    double a = study.baseCycles(w, o);
    double b = study.baseCycles(w, o);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(StudyTest, TimedRunMatchesRunWorkload)
{
    // The study path (compile cache, then runOnMachine) and the
    // one-shot driver give the same outcome, cold cache or warm.
    const Workload &w = workloadByName("whet");
    const MachineConfig machine = idealSuperscalar(4);
    const CompileOptions o = defaultCompileOptions(w);
    const RunOutcome live = runWorkload(w, machine, o);
    Study study(1);
    for (int pass = 0; pass < 2; ++pass) {
        const RunOutcome out = study.timedRun(w, machine, o);
        EXPECT_EQ(out.checksum, w.expected);
        EXPECT_EQ(out.checksum, live.checksum);
        EXPECT_EQ(out.fpChecksum, live.fpChecksum);
        EXPECT_EQ(out.instructions, live.instructions);
        EXPECT_EQ(out.cycles, live.cycles);
    }
    EXPECT_EQ(study.compileCache().misses(), 1u);
    EXPECT_EQ(study.compileCache().hits(), 1u);
}

using StudyTrapTest = test::ThrowingErrors;

TEST_F(StudyTrapTest, TimedRunSurfacesTrapsInTheOutcome)
{
    // A trapping workload: timedRun reports the trap in the outcome
    // (no bogus checksum), and speedup() turns it into a
    // TrapException for sweep cells.
    Workload w{"trapper", "always divides by zero",
               R"(var int zero;
                  func main() : int { return 1 / zero; })",
               0, false, 1};
    Study study(1);
    RunOutcome out = study.timedRun(w, idealSuperscalar(4),
                                    defaultCompileOptions(w));
    ASSERT_TRUE(out.trapped());
    EXPECT_EQ(out.trap.code, ErrCode::TrapDivideByZero);
    EXPECT_EQ(out.checksum, 0);
    EXPECT_EQ(out.fpChecksum, 0.0);
    EXPECT_THROW(study.speedup(w, idealSuperscalar(4),
                               defaultCompileOptions(w)),
                 TrapException);
}

TEST(StudyTest, Cray1GainsLittleFromParallelIssueWithRealLatencies)
{
    // Figure 4-4's punchline: with real latencies the CRAY-1 barely
    // benefits from multiple issue; with unit latencies it does.
    Study study;
    const Workload &w = workloadByName("ccom");
    CompileOptions o = defaultCompileOptions(w);

    auto cray_speedup = [&](bool unit, int width) {
        MachineConfig m = cray1(unit);
        m.issueWidth = width;
        m.name += "+w" + std::to_string(width);
        RunOutcome one = runWorkload(w, cray1(unit), o);
        RunOutcome wide = runWorkload(w, m, o);
        return one.cycles / wide.cycles;
    };
    double real_gain = cray_speedup(false, 8);
    double unit_gain = cray_speedup(true, 8);
    EXPECT_GT(unit_gain, real_gain);
    EXPECT_LT(real_gain, 1.6);
    EXPECT_GT(unit_gain, 1.5);
}

TEST(StudyTest, OptimizationLevelsChangeParallelismOnlyModestly)
{
    // §4.4: classical optimization has little effect on parallelism
    // (scheduling itself helps 10-60%).  Check scheduling's gain and
    // that higher levels stay in a sane band.
    Study study;
    const Workload &w = workloadByName("ccom");
    CompileOptions none = defaultCompileOptions(w);
    none.level = OptLevel::None;
    CompileOptions sched = none;
    sched.level = OptLevel::Sched;
    double p_none = study.availableParallelism(w, none, 8);
    double p_sched = study.availableParallelism(w, sched, 8);
    EXPECT_GE(p_sched, p_none - 1e-6);

    CompileOptions full = none;
    full.level = OptLevel::RegAlloc;
    double p_full = study.availableParallelism(w, full, 8);
    EXPECT_GT(p_full, 1.0);
    EXPECT_LT(p_full, 4.0);
}

} // namespace
} // namespace ilp
