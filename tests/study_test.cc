/** Tests for the experiment harness and its paper-level invariants. */

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/study/experiment.hh"
#include "core/machine/models.hh"
#include "sim/exec.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

TEST(StudyTest, BaseMachineCyclesEqualInstructionCount)
{
    // §2.1: the base machine never stalls under unit latencies.
    const Workload &w = workloadByName("yacc");
    CompileOptions o = defaultCompileOptions(w);
    RunOutcome out = runWorkload(w, baseMachine(), o);
    EXPECT_DOUBLE_EQ(out.cycles,
                     static_cast<double>(out.instructions));
}

/** Every (workload, options) pair a paper artifact or the ablation
 *  times, once each. */
std::vector<std::pair<const Workload *, CompileOptions>>
artifactOptionSets()
{
    std::vector<std::pair<const Workload *, CompileOptions>> sets;
    std::set<std::string> seen;
    auto add = [&](const Workload &w, const CompileOptions &o) {
        if (seen.insert(Study::fingerprint(w, o)).second)
            sets.emplace_back(&w, o);
    };
    // The defaults, Figure 4-8's levels, the ablation's alias levels
    // and temp supplies.
    for (const Workload &w : allWorkloads()) {
        const CompileOptions o = defaultCompileOptions(w);
        add(w, o);
        for (int level = 0; level <= 4; ++level) {
            CompileOptions l = o;
            l.level = static_cast<OptLevel>(level);
            add(w, l);
        }
        for (AliasLevel alias :
             {AliasLevel::Conservative, AliasLevel::Arrays,
              AliasLevel::Symbols, AliasLevel::Careful}) {
            CompileOptions a = o;
            a.alias = alias;
            add(w, a);
        }
        for (std::uint32_t temps : {6u, 8u, 12u, 24u, 40u}) {
            CompileOptions t = o;
            t.layout.numTemp = temps;
            add(w, t);
        }
    }
    // Figure 4-6: naive and careful unrolling with 40 temps.
    for (const char *name : {"linpack", "livermore"}) {
        const Workload &w = workloadByName(name);
        for (int factor : {1, 2, 4, 6, 8, 10}) {
            for (bool careful : {false, true}) {
                CompileOptions u = defaultCompileOptions(w);
                u.unroll.factor = factor;
                u.unroll.careful = careful;
                u.alias =
                    careful ? AliasLevel::Heroic : AliasLevel::Arrays;
                u.layout.numTemp = 40;
                add(w, u);
            }
        }
    }
    return sets;
}

TEST(StudyTest, SpeedupIsInstructionsOverCycles)
{
    // Why no artifact times the base machine: (a) its cycles equal
    // the instruction count, and (b) every schedule of one prefix
    // executes the same instructions, so the base machine's cycles
    // over a run's cycles are that run's instructions over its
    // cycles.  Only (a) needs a timed run; (b) counts instructions
    // with an untimed run of each schedule.
    MachineConfig fenced = idealSuperscalar(8);
    fenced.issueAcrossBranches = false;
    fenced.name += "+fence";
    const std::vector<MachineConfig> machines{
        baseMachine(), idealSuperscalar(8), fenced, multiTitan(),
        cray1(), superscalarWithClassConflicts(4, 2, 1)};
    const auto sets = artifactOptionSets();
    const std::size_t n = sets.size();

    // Machine-major, so the first cells compile distinct prefixes in
    // parallel and the later ones hit them.
    CompileCache cache;
    SweepRunner runner(4);
    const std::vector<RunOutcome> runs = runner.map<RunOutcome>(
        n * machines.size(), [&](std::size_t i) {
            const auto &[w, o] = sets[i % n];
            const MachineConfig &m = machines[i / n];
            const std::shared_ptr<const Module> module =
                cache.compile(*w, m, o);
            if (i < n)
                return runOnMachine(*module, m);
            const RunResult r = makeExecutor(*module)->run("main");
            RunOutcome out;
            out.instructions = r.instructions;
            out.trap = r.trap;
            return out;
        });

    for (std::size_t s = 0; s < n; ++s) {
        const std::string cell =
            Study::fingerprint(*sets[s].first, sets[s].second);
        const RunOutcome &base = runs[s];
        ASSERT_FALSE(base.trapped()) << cell;
        EXPECT_EQ(base.cycles, static_cast<double>(base.instructions))
            << cell;
        for (std::size_t m = 1; m < machines.size(); ++m) {
            const RunOutcome &out = runs[m * n + s];
            ASSERT_FALSE(out.trapped()) << cell;
            EXPECT_EQ(out.instructions, base.instructions)
                << cell << " scheduled for " << machines[m].name;
        }
    }
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
