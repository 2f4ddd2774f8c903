/** Tests for the study's metrics — including Table 2-1 exactly. */

#include <gtest/gtest.h>

#include "core/metrics/metrics.hh"
#include "core/machine/models.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

TEST(MetricsTest, Table21NominalMultiTitanIs1_7)
{
    // The headline Table 2-1 numbers, reproduced exactly.
    EXPECT_NEAR(nominalMultiTitanSuperpipelining(), 1.7, 1e-12);
}

TEST(MetricsTest, Table21NominalCray1Is4_4)
{
    EXPECT_NEAR(nominalCray1Superpipelining(), 4.4, 1e-12);
}

TEST(MetricsTest, NominalMixSumsToOne)
{
    double sum = 0.0;
    for (const auto &row : paperNominalMix())
        sum += row.frequency;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(MetricsTest, AverageDegreeIsFrequencyDotLatency)
{
    ClassFrequencies freq{};
    freq[static_cast<int>(InstrClass::IntAdd)] = 0.5;
    freq[static_cast<int>(InstrClass::Load)] = 0.5;
    LatencyTable lat = unitLatencies();
    lat[static_cast<int>(InstrClass::Load)] = 3;
    EXPECT_DOUBLE_EQ(averageDegreeOfSuperpipelining(freq, lat), 2.0);
}

TEST(MetricsTest, UnitLatencyMachineHasDegreeOne)
{
    ClassFrequencies freq{};
    freq[0] = 0.25;
    freq[3] = 0.75;
    EXPECT_DOUBLE_EQ(
        averageDegreeOfSuperpipelining(freq, unitLatencies()), 1.0);
}

TEST(MetricsTest, NormalizeCounts)
{
    ClassCounts counts{};
    counts[0] = 30;
    counts[1] = 10;
    ClassFrequencies f = normalizeCounts(counts);
    EXPECT_DOUBLE_EQ(f[0], 0.75);
    EXPECT_DOUBLE_EQ(f[1], 0.25);
}

TEST(MetricsTest, NormalizeRejectsEmpty)
{
    setLoggingThrows(true);
    ClassCounts counts{};
    EXPECT_THROW(normalizeCounts(counts), FatalError);
    setLoggingThrows(false);
}

// --- Figure 4-7: the three expression graphs -----------------------

TEST(ExprDagTest, Figure47LeftGraph)
{
    // Five operations, critical path 3: parallelism 1.67.
    ExprDag dag;
    int a = dag.addNode();
    int b = dag.addNode();
    int c = dag.addNode();
    int d = dag.addNode({a, b});
    dag.addNode({d, c});
    EXPECT_EQ(dag.criticalPath(), 3);
    EXPECT_NEAR(dag.parallelism(), 5.0 / 3.0, 1e-12);
}

TEST(ExprDagTest, Figure47MiddleGraph)
{
    // Optimizing the off-critical branch: 4 ops, path 3 -> 1.33.
    ExprDag dag;
    int a = dag.addNode();
    int b = dag.addNode();
    int d = dag.addNode({a, b});
    dag.addNode({d});
    EXPECT_EQ(dag.criticalPath(), 3);
    EXPECT_NEAR(dag.parallelism(), 4.0 / 3.0, 1e-12);
}

TEST(ExprDagTest, Figure47RightGraph)
{
    // Optimizing the bottleneck: 3 ops, path 2 -> 1.50.
    ExprDag dag;
    int a = dag.addNode();
    int b = dag.addNode();
    dag.addNode({a, b});
    EXPECT_EQ(dag.criticalPath(), 2);
    EXPECT_NEAR(dag.parallelism(), 1.5, 1e-12);
}

TEST(ExprDagTest, SingleNode)
{
    ExprDag dag;
    dag.addNode();
    EXPECT_EQ(dag.criticalPath(), 1);
    EXPECT_DOUBLE_EQ(dag.parallelism(), 1.0);
}

TEST(ExprDagTest, BadDependencyPanics)
{
    setLoggingThrows(true);
    ExprDag dag;
    EXPECT_THROW(dag.addNode({5}), FatalError);
    setLoggingThrows(false);
}

TEST(MetricsTest, ParallelismRequiredIsNTimesM)
{
    // Figure 4-3: parallelism to fully utilize (n,m) is n*m.
    EXPECT_EQ(parallelismRequired(1, 1), 1);
    EXPECT_EQ(parallelismRequired(2, 2), 4);
    EXPECT_EQ(parallelismRequired(3, 5), 15);
}

} // namespace
} // namespace ilp
