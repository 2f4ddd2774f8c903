/** Tests for src/support: logging, tables, statistics. */

#include <algorithm>

#include <gtest/gtest.h>

#include "support/logging.hh"
#include "support/statistics.hh"
#include "support/table.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

using test::ThrowingErrors;

class LoggingTest : public ThrowingErrors
{
};

TEST_F(LoggingTest, PanicThrowsInTestMode)
{
    EXPECT_THROW(SS_PANIC("boom ", 42), FatalError);
}

TEST_F(LoggingTest, FatalThrowsInTestMode)
{
    EXPECT_THROW(SS_FATAL("bad input"), FatalError);
}

TEST_F(LoggingTest, PanicMessageCarriesPayloadAndLocation)
{
    try {
        SS_PANIC("code ", 7);
        FAIL() << "should have thrown";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("code 7"), std::string::npos);
        EXPECT_NE(what.find("support_test"), std::string::npos);
    }
}

TEST_F(LoggingTest, AssertPassesAndFails)
{
    EXPECT_NO_THROW(SS_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(SS_ASSERT(1 + 1 == 3, "broken"), FatalError);
}

TEST(WarnTest, CountsWarnings)
{
    std::size_t before = warnCount();
    SS_WARN("test warning, please ignore");
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(StatisticsTest, HarmonicMeanMatchesHandComputation)
{
    // HM(1, 2, 4) = 3 / (1 + 0.5 + 0.25) = 12/7.
    EXPECT_NEAR(harmonicMean({1.0, 2.0, 4.0}), 12.0 / 7.0, 1e-12);
}

TEST(StatisticsTest, HarmonicMeanOfEqualValuesIsThatValue)
{
    EXPECT_DOUBLE_EQ(harmonicMean({3.5, 3.5, 3.5}), 3.5);
}

TEST(StatisticsTest, HarmonicMeanLiesBetweenMinAndMax)
{
    // The suite aggregate of §4.3 never leaves the range of the
    // per-benchmark speedups it summarizes.
    std::vector<double> v{1.3, 2.7, 0.9, 5.5};
    EXPECT_LE(*std::min_element(v.begin(), v.end()), harmonicMean(v));
    EXPECT_LE(harmonicMean(v), *std::max_element(v.begin(), v.end()));
}

TEST(StatisticsTest, HarmonicMeanRejectsEmptyInput)
{
    setLoggingThrows(true);
    EXPECT_THROW(harmonicMean({}), FatalError);
    setLoggingThrows(false);
}

TEST(StatisticsTest, HarmonicMeanRejectsNonPositive)
{
    setLoggingThrows(true);
    EXPECT_THROW(harmonicMean({1.0, 0.0}), FatalError);
    setLoggingThrows(false);
}

TEST(TableTest, RendersAlignedColumnsWithRule)
{
    Table t("Title");
    t.setHeader({"name", "value"});
    t.row().cell("alpha").cell(12LL);
    t.row().cell("b").cell(3.14159, 2);
    std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, FormatFixedRounds)
{
    EXPECT_EQ(formatFixed(1.005, 1), "1.0");
    EXPECT_EQ(formatFixed(2.25, 1), "2.2"); // round-to-even via printf
    EXPECT_EQ(formatFixed(-1.5, 0), "-2");
}

TEST(TableTest, CellBeforeRowPanics)
{
    setLoggingThrows(true);
    Table t;
    EXPECT_THROW(t.cell("oops"), FatalError);
    setLoggingThrows(false);
}

} // namespace
} // namespace ilp
