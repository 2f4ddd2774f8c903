/** Exact-cycle tests for the in-order issue engine — the §2 taxonomy
 *  semantics, including the Figure 4-2 start-up transient. */

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "sim/issue.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

DynInstr
alu(Reg dst, Reg s1 = kNoReg, Reg s2 = kNoReg,
    Opcode op = Opcode::AddI)
{
    DynInstr d;
    d.op = op;
    d.dst = dst;
    d.addSrc(s1);
    d.addSrc(s2);
    return d;
}

DynInstr
load(Reg dst, Reg base, std::int64_t addr)
{
    DynInstr d;
    d.op = Opcode::LoadW;
    d.dst = dst;
    d.addSrc(base);
    d.addr = addr;
    return d;
}

DynInstr
store(Reg base, Reg value, std::int64_t addr)
{
    DynInstr d;
    d.op = Opcode::StoreW;
    d.addSrc(base);
    d.addSrc(value);
    d.addr = addr;
    return d;
}

DynInstr
branch(Reg cond)
{
    DynInstr d;
    d.op = Opcode::Br;
    d.addSrc(cond);
    return d;
}

double
cycles(const MachineConfig &m, const std::vector<DynInstr> &trace)
{
    IssueEngine e(m);
    for (const auto &d : trace)
        e.emit(d);
    return e.baseCycles();
}

std::vector<DynInstr>
independent(int n)
{
    std::vector<DynInstr> t;
    for (int i = 0; i < n; ++i)
        t.push_back(alu(static_cast<Reg>(i + 100)));
    return t;
}

std::vector<DynInstr>
chain(int n)
{
    std::vector<DynInstr> t;
    t.push_back(alu(100));
    for (int i = 1; i < n; ++i)
        t.push_back(alu(static_cast<Reg>(100 + i),
                        static_cast<Reg>(100 + i - 1)));
    return t;
}

TEST(IssueTest, BaseMachineNeverStalls)
{
    // §2.1: "there are never any operation-latency interlocks,
    // stalls, or NOP's in a base machine."
    MachineConfig base = baseMachine();
    EXPECT_DOUBLE_EQ(cycles(base, independent(10)), 10.0);
    EXPECT_DOUBLE_EQ(cycles(base, chain(10)), 10.0);
}

TEST(IssueTest, SuperscalarPacksIndependentWork)
{
    // Figure 4-2, top: degree-3 superscalar issues 6 independent
    // instructions in cycles {0,0,0,1,1,1}; all complete by cycle 2.
    EXPECT_DOUBLE_EQ(cycles(idealSuperscalar(3), independent(6)), 2.0);
}

TEST(IssueTest, SuperpipelinedStartupTransient)
{
    // Figure 4-2, bottom: degree-3 superpipelined issues one per
    // minor cycle (0..5); the last completes at minor 5+3=8, i.e.
    // 8/3 base cycles — strictly behind the superscalar's 2.0.
    EXPECT_DOUBLE_EQ(cycles(superpipelined(3), independent(6)),
                     8.0 / 3.0);
}

TEST(IssueTest, DependentChainsShowDuality)
{
    // On serial code both machines collapse to one op per base cycle.
    EXPECT_DOUBLE_EQ(cycles(idealSuperscalar(3), chain(9)), 9.0);
    EXPECT_DOUBLE_EQ(cycles(superpipelined(3), chain(9)), 9.0);
}

TEST(IssueTest, SuperpipelinedNeverBeatsEqualSuperscalar)
{
    // §2.7 + §4.1: same steady-state rate, startup transient on the
    // superpipelined side.
    for (int degree : {2, 3, 4, 8}) {
        for (int n : {4, 7, 16, 64}) {
            auto t = independent(n);
            EXPECT_LE(cycles(idealSuperscalar(degree), t),
                      cycles(superpipelined(degree), t) + 1e-9)
                << "degree " << degree << " n " << n;
        }
    }
}

TEST(IssueTest, SpeedupBoundedByDegree)
{
    auto t = independent(300);
    double base = cycles(baseMachine(), t);
    for (int degree : {2, 3, 4, 8}) {
        double ss = cycles(idealSuperscalar(degree), t);
        EXPECT_LE(base / ss, degree + 1e-9);
        double sp = cycles(superpipelined(degree), t);
        EXPECT_LE(base / sp, degree + 1e-9);
    }
}

TEST(IssueTest, SuperpipelinedSuperscalarComposes)
{
    // (n=2, m=2) on abundant independent work approaches speedup 4.
    auto t = independent(400);
    double base = cycles(baseMachine(), t);
    double both = cycles(superpipelinedSuperscalar(2, 2), t);
    EXPECT_GT(base / both, 3.5);
    EXPECT_LE(base / both, 4.0 + 1e-9);
}

TEST(IssueTest, OperationLatencyStallsDependents)
{
    // CRAY-1 load latency 11: a dependent add waits.
    MachineConfig cray = cray1();
    std::vector<DynInstr> t;
    t.push_back(load(1, 50, 0x2000));
    t.push_back(alu(2, 1));
    // load issues at 0, completes at 11; add at 11, completes at 14.
    EXPECT_DOUBLE_EQ(cycles(cray, t), 14.0);
}

TEST(IssueTest, IndependentWorkHidesLatency)
{
    MachineConfig cray = cray1();
    std::vector<DynInstr> t;
    t.push_back(load(1, 50, 0x2000));
    for (int i = 0; i < 10; ++i)
        t.push_back(alu(static_cast<Reg>(10 + i), 50, 50,
                        Opcode::AndI)); // logical: latency 1
    t.push_back(alu(2, 1));
    // Load at 0 (done 11); 10 logicals at 1..10; add at 11, done 14.
    EXPECT_DOUBLE_EQ(cycles(cray, t), 14.0);
}

TEST(IssueTest, MemoryRawThroughSameWord)
{
    MachineConfig base = baseMachine();
    std::vector<DynInstr> t;
    t.push_back(store(1, 2, 0x3000));
    t.push_back(load(3, 1, 0x3000)); // must wait for the store
    IssueEngine e(base);
    for (const auto &d : t)
        e.emit(d);
    // store at 0 completes 1; load can issue at 1, completes 2.
    EXPECT_DOUBLE_EQ(e.baseCycles(), 2.0);
}

TEST(IssueTest, NoFalseMemoryDependenceAcrossWords)
{
    MachineConfig ss = idealSuperscalar(2);
    std::vector<DynInstr> t;
    t.push_back(store(1, 2, 0x3000));
    t.push_back(load(3, 1, 0x3008)); // different word: same cycle OK
    EXPECT_DOUBLE_EQ(cycles(ss, t), 1.0);
}

TEST(IssueTest, ClassConflictSerializesSameUnit)
{
    // Width 4 but a single (unduplicated) integer ALU: four adds
    // issue in four consecutive cycles (§2.3.2).
    MachineConfig m = superscalarWithClassConflicts(4, 1, 1);
    auto t = independent(4);
    EXPECT_DOUBLE_EQ(cycles(m, t), 4.0);
    // Duplicating the ALU twice halves that.
    MachineConfig m2 = superscalarWithClassConflicts(4, 2, 1);
    EXPECT_DOUBLE_EQ(cycles(m2, t), 2.0);
}

TEST(IssueTest, MixedClassesAvoidConflicts)
{
    // An add and an FP multiply use different units: dual-issue OK
    // even with multiplicity 1.
    MachineConfig m = superscalarWithClassConflicts(2, 1, 1);
    std::vector<DynInstr> t;
    t.push_back(alu(1));
    t.push_back(alu(2, kNoReg, kNoReg, Opcode::MulF));
    EXPECT_DOUBLE_EQ(cycles(m, t), 1.0);
}

TEST(IssueTest, UnderpipelinedIssuesEveryOtherCycle)
{
    // Figure 2-3: issue latency 2 on the universal unit.
    MachineConfig m = underpipelinedHalfIssue();
    EXPECT_DOUBLE_EQ(cycles(m, independent(4)), 7.0);
}

TEST(IssueTest, BranchFenceWhenIssueAcrossBranchesDisabled)
{
    MachineConfig m = idealSuperscalar(4);
    m.issueAcrossBranches = false;
    std::vector<DynInstr> t;
    t.push_back(alu(1));
    t.push_back(branch(1));
    t.push_back(alu(2));
    t.push_back(alu(3));
    // alu at 0; the dependent branch at 1; the fence pushes the two
    // remaining adds to cycle 2, completing at 3.
    EXPECT_DOUBLE_EQ(cycles(m, t), 3.0);

    MachineConfig open = idealSuperscalar(4);
    EXPECT_DOUBLE_EQ(cycles(open, t), 2.0); // chain: br reads alu(1)
    // With an independent branch the open machine packs everything.
    std::vector<DynInstr> t2;
    t2.push_back(alu(1));
    t2.push_back(branch(99));
    t2.push_back(alu(2));
    t2.push_back(alu(3));
    EXPECT_DOUBLE_EQ(cycles(open, t2), 1.0);
}

TEST(IssueTest, IssueCountsAccounting)
{
    MachineConfig ss = idealSuperscalar(3);
    IssueEngine e(ss);
    for (const auto &d : independent(6))
        e.emit(d);
    auto counts = e.issueCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[3], 2u); // two full cycles of 3
}

TEST(IssueTest, InstrPerBaseCycle)
{
    MachineConfig ss = idealSuperscalar(4);
    IssueEngine e(ss);
    for (const auto &d : independent(40))
        e.emit(d);
    EXPECT_EQ(e.instructions(), 40u);
    EXPECT_NEAR(e.instrPerBaseCycle(), 40.0 / e.baseCycles(), 1e-12);
}

TEST(IssueTest, BufferedTraceRetimes)
{
    TraceBuffer buf;
    for (const auto &d : independent(8))
        buf.emit(d);
    IssueEngine e(idealSuperscalar(4));
    for (const DynInstr &di : buf.trace())
        e.emit(di);
    EXPECT_DOUBLE_EQ(e.baseCycles(), 2.0);
}

// ----------------------------------------------- stall attribution

/** Every lost issue slot is charged to exactly one cause. */
void
expectExactAttribution(const IssueEngine &e)
{
    EXPECT_EQ(e.stallBreakdown().total(), e.lostIssueSlots());
    EXPECT_EQ(e.issuePeriodMinorCycles() *
                  static_cast<std::uint64_t>(
                      e.config().issueWidth),
              e.instructions() + e.lostIssueSlots());
}

TEST(IssueTest, StallAttributionFullMachineLosesNothing)
{
    IssueEngine e(idealSuperscalar(4));
    for (const auto &d : independent(8))
        e.emit(d);
    EXPECT_EQ(e.lostIssueSlots(), 0u);
    expectExactAttribution(e);
}

TEST(IssueTest, StallAttributionChargesRawLatency)
{
    // A dependence chain on a 4-wide machine: each cycle issues one
    // instruction and loses three slots to the RAW interlock; the
    // final cycle's remainder is frontend drain.
    IssueEngine e(idealSuperscalar(4));
    for (const auto &d : chain(5))
        e.emit(d);
    EXPECT_EQ(e.issuePeriodMinorCycles(), 5u);
    EXPECT_EQ(e.lostIssueSlots(), 15u);
    StallBreakdown bd = e.stallBreakdown();
    EXPECT_EQ(bd[StallCause::RawLatency], 12u);
    EXPECT_EQ(bd[StallCause::FrontendDrain], 3u);
    EXPECT_EQ(bd[StallCause::UnitConflict], 0u);
    EXPECT_EQ(bd[StallCause::BranchFence], 0u);
    expectExactAttribution(e);
}

TEST(IssueTest, StallAttributionChargesUnitConflicts)
{
    // One single-copy unit pool: the second independent instruction
    // of each cycle waits for the unit, not for data.
    MachineConfig m = superscalarWithClassConflicts(4);
    IssueEngine e(m);
    for (const auto &d : independent(4))
        e.emit(d);
    StallBreakdown bd = e.stallBreakdown();
    EXPECT_GT(bd[StallCause::UnitConflict], 0u);
    EXPECT_EQ(bd[StallCause::RawLatency], 0u);
    expectExactAttribution(e);
}

TEST(IssueTest, StallAttributionChargesBranchFence)
{
    MachineConfig m = idealSuperscalar(4);
    m.issueAcrossBranches = false;
    IssueEngine e(m);
    e.emit(alu(1));
    e.emit(branch(99)); // closes the cycle: 2 of 4 slots used
    e.emit(alu(2));     // next cycle
    e.emit(alu(3));
    StallBreakdown bd = e.stallBreakdown();
    EXPECT_EQ(bd[StallCause::BranchFence], 2u);
    EXPECT_EQ(bd[StallCause::FrontendDrain], 2u);
    expectExactAttribution(e);
}

TEST(IssueTest, StallAttributionLatencyWinsTies)
{
    // Load latency on the MultiTitan (2 base cycles): a consumer of
    // the load waits on data, and the charge goes to RawLatency even
    // when other constraints bind at the same cycle.
    IssueEngine e(multiTitan());
    e.emit(load(1, kNoReg, 64));
    e.emit(alu(2, 1));
    StallBreakdown bd = e.stallBreakdown();
    EXPECT_GT(bd[StallCause::RawLatency], 0u);
    expectExactAttribution(e);
}

TEST(IssueTest, StallAttributionSuperpipelined)
{
    // On an sp4 machine the chain spaces issues by the stretched
    // minor-cycle latency; attribution must stay exact with m > 1.
    IssueEngine e(superpipelined(4));
    for (const auto &d : chain(6))
        e.emit(d);
    expectExactAttribution(e);
    EXPECT_GT(e.stallBreakdown()[StallCause::RawLatency], 0u);
}

TEST(IssueTest, CompletionTailSeparatesLatencyDrain)
{
    // A lone long-latency instruction: the issue period is one cycle,
    // the rest of its latency is completion tail, not lost slots.
    IssueEngine e(cray1());
    e.emit(load(1, kNoReg, 64));
    EXPECT_EQ(e.issuePeriodMinorCycles(), 1u);
    EXPECT_EQ(e.completionTailMinorCycles(),
              e.minorCycles() - 1);
    expectExactAttribution(e);
}

TEST(IssueTest, TimelineRecordsIssueSlots)
{
    IssueEngine e(idealSuperscalar(2));
    e.recordTimeline(3);
    for (const auto &d : independent(5))
        e.emit(d);
    ASSERT_EQ(e.timeline().size(), 3u);
    EXPECT_EQ(e.timelineDropped(), 2u);
    EXPECT_EQ(e.timeline()[0].cycle, 0u);
    EXPECT_EQ(e.timeline()[0].slot, 0u);
    EXPECT_EQ(e.timeline()[1].slot, 1u);
    EXPECT_EQ(e.timeline()[2].cycle, 1u);
    EXPECT_EQ(e.timeline()[2].slot, 0u);
}

} // namespace
} // namespace ilp
