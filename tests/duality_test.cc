/** The §2.7 duality, asserted analytically.  On a stream of
 *  parallelism exactly k (groups of k independent instructions, each
 *  group fed by the previous group's first instruction), successive
 *  producers pipeline: max(1, k/n) cycles apart on an ideal
 *  superscalar of degree n, max(m, k) minor cycles apart on an ideal
 *  superpipelined machine of degree m — so BOTH settle at exactly
 *  min(k, degree) instructions per base cycle.  That is the paper's
 *  "roughly equivalent ways of exploiting instruction-level
 *  parallelism" in closed form.  The unit-conflict throughput bound
 *  of §2.3.2 machines gets the same closed-form treatment below. */

#include <gtest/gtest.h>

#include <string>

#include "core/machine/models.hh"
#include "sim/issue.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

/**
 * A stream with parallelism exactly k: groups of k mutually
 * independent instructions, each group reading the previous group's
 * designated producer.
 */
std::vector<DynInstr>
groupedStream(int k, int groups)
{
    std::vector<DynInstr> t;
    Reg link = 900; // bootstrap producer (never written: ready at 0)
    Reg next_reg = 100;
    for (int g = 0; g < groups; ++g) {
        Reg new_link = kNoReg;
        for (int i = 0; i < k; ++i) {
            DynInstr d;
            d.op = Opcode::AddI;
            d.dst = next_reg++;
            d.addSrc(link);
            if (i == 0)
                new_link = d.dst;
            t.push_back(d);
        }
        link = new_link;
    }
    return t;
}

double
throughput(const MachineConfig &m, const std::vector<DynInstr> &t)
{
    IssueEngine engine(m);
    for (const auto &d : t)
        engine.emit(d);
    return engine.instrPerBaseCycle();
}

class DualityTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(DualityTest, SuperscalarThroughputIsMinKN)
{
    // Successive producers pipeline max(1, k/n) cycles apart, so the
    // steady-state rate is exactly min(k, n) per base cycle.
    auto [n, k] = GetParam();
    auto t = groupedStream(k, 4000);
    double expect = std::min(k, n);
    EXPECT_NEAR(throughput(idealSuperscalar(n), t), expect,
                0.02 * expect)
        << "n=" << n << " k=" << k;
}

TEST_P(DualityTest, SuperpipelinedThroughputIsMinKM)
{
    auto [m, k] = GetParam();
    auto t = groupedStream(k, 4000);
    double expect = std::min(k, m);
    EXPECT_NEAR(throughput(superpipelined(m), t), expect,
                0.02 * expect)
        << "m=" << m << " k=" << k;
}

TEST_P(DualityTest, EqualDegreesConvergeInTheSteadyState)
{
    // Both asymptotes are min(k, degree): the machines really are
    // "roughly equivalent ways of exploiting instruction-level
    // parallelism" (§2.7).
    auto [deg, k] = GetParam();
    auto t = groupedStream(k, 4000);
    double ss = throughput(idealSuperscalar(deg), t);
    double sp = throughput(superpipelined(deg), t);
    // §2.7: same steady-state rate; superscalar ahead only by the
    // start-up transient, which washes out over 4000 groups.
    EXPECT_NEAR(ss, sp, 0.03 * ss) << "deg=" << deg << " k=" << k;
    EXPECT_GE(ss, sp - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndParallelism, DualityTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 8),
                       ::testing::Values(1, 2, 3, 4, 6, 8, 12)),
    [](const auto &info) {
        return "deg" + std::to_string(std::get<0>(info.param)) + "_k" +
               std::to_string(std::get<1>(info.param));
    });

/**
 * The unit-conflict bound in closed form (PALMED, PAPERS.md:
 * throughput is capped by each resource's use over its capacity).  A
 * stream of independent instructions of one class issues, in the
 * steady state, min(issueWidth, multiplicity / issueLatency) per
 * minor cycle: whichever saturates first, the issue slots or the
 * copies of the unit serving the class.
 */
struct UnitBoundCase
{
    std::string name;
    MachineConfig machine;
    Opcode op;
};

class UnitBoundTest : public ::testing::TestWithParam<UnitBoundCase>
{
};

TEST_P(UnitBoundTest, IndependentStreamIssuesAtTheUnitBound)
{
    const UnitBoundCase &c = GetParam();
    const MachineConfig &m = c.machine;
    const int unit = m.unitFor(opcodeClass(c.op));
    ASSERT_GE(unit, 0) << c.name;
    const FuncUnit &u = m.units[static_cast<std::size_t>(unit)];
    const double expect =
        std::min(static_cast<double>(m.issueWidth),
                 static_cast<double>(u.multiplicity) / u.issueLatency);

    // No sources and a fresh word per memory access: nothing but the
    // issue slots and the unit limits the rate.
    constexpr int kInstrs = 4000;
    IssueEngine engine(m);
    for (int i = 0; i < kInstrs; ++i) {
        DynInstr d;
        d.op = c.op;
        if (!isStore(c.op))
            d.dst = 1;
        if (isMem(c.op))
            d.addr = kWordBytes * i;
        engine.emit(d);
    }
    const double rate =
        kInstrs / static_cast<double>(engine.issuePeriodMinorCycles());
    EXPECT_NEAR(rate, expect, 0.01 * expect) << c.name;
}

MachineConfig
slowAluCopies()
{
    // Two ALU copies that each accept an instruction every third
    // cycle: a fractional bound, 2/3 per cycle.
    MachineConfig m = superscalarWithClassConflicts(4, 2, 1);
    m.units[0].issueLatency = 3;
    return m;
}

INSTANTIATE_TEST_SUITE_P(
    ClassConflicts, UnitBoundTest,
    ::testing::Values(
        UnitBoundCase{"half_issue_add", underpipelinedHalfIssue(),
                      Opcode::AddI},
        UnitBoundCase{"slow_clock_add", underpipelinedSlowClock(),
                      Opcode::AddI},
        UnitBoundCase{"slow_clock_load", underpipelinedSlowClock(),
                      Opcode::LoadW},
        UnitBoundCase{"conflicts4_add",
                      superscalarWithClassConflicts(4), Opcode::AddI},
        UnitBoundCase{"conflicts4_load",
                      superscalarWithClassConflicts(4), Opcode::LoadW},
        UnitBoundCase{"conflicts4_fmul",
                      superscalarWithClassConflicts(4), Opcode::MulF},
        UnitBoundCase{"conflicts4_alu2_add",
                      superscalarWithClassConflicts(4, 2, 1),
                      Opcode::AddI},
        UnitBoundCase{"conflicts4_alu3_mem2_shift",
                      superscalarWithClassConflicts(4, 3, 2),
                      Opcode::ShlI},
        UnitBoundCase{"conflicts4_alu3_mem2_store",
                      superscalarWithClassConflicts(4, 3, 2),
                      Opcode::StoreW},
        UnitBoundCase{"conflicts2_alu3_width_bound",
                      superscalarWithClassConflicts(2, 3, 1),
                      Opcode::AndI},
        UnitBoundCase{"conflicts4_alu2_lat3_move", slowAluCopies(),
                      Opcode::MovI}),
    [](const auto &info) { return info.param.name; });

TEST(DualityEdgeTest, PureChainIsDegreeProof)
{
    // k=1: every machine of every degree runs at 1 instr/base cycle.
    auto t = groupedStream(1, 2000);
    for (int deg : {1, 2, 4, 8}) {
        EXPECT_NEAR(throughput(idealSuperscalar(deg), t), 1.0, 0.01);
        EXPECT_NEAR(throughput(superpipelined(deg), t), 1.0, 0.01);
    }
}

TEST(DualityEdgeTest, CompositionMultiplies)
{
    // ss(n,m) on abundant parallelism reaches ~n*m per base cycle.
    auto t = groupedStream(16, 3000);
    EXPECT_NEAR(throughput(superpipelinedSuperscalar(2, 2), t), 4.0,
                0.1);
    EXPECT_NEAR(throughput(superpipelinedSuperscalar(4, 2), t), 8.0,
                0.25);
}

} // namespace
} // namespace ilp
