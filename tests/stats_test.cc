/** Registry semantics, JSON round-trips, and histogram binning for
 *  the ilp::stats observability layer. */

#include <gtest/gtest.h>

#include <sstream>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace ilp {
namespace {

TEST(StatsTest, GetOrCreateReturnsSameEntity)
{
    stats::Registry reg;
    stats::Group &g = reg.group("issue");
    stats::Counter &c1 = g.counter("instructions");
    c1.inc(5);
    stats::Counter &c2 = g.counter("instructions");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 5u);
    EXPECT_EQ(&reg.group("issue"), &g);
}

TEST(StatsTest, RequestingDifferentKindPanics)
{
    setLoggingThrows(true);
    stats::Registry reg;
    reg.group("g").counter("x");
    EXPECT_THROW(reg.group("g").scalar("x"), FatalError);
    setLoggingThrows(false);
}

TEST(StatsTest, FormulaEvaluatesLazily)
{
    stats::Registry reg;
    double cycles = 0.0;
    stats::Group &g = reg.group("run");
    g.formula("ipc", "instrs per cycle",
              [&] { return cycles > 0 ? 100.0 / cycles : 0.0; });
    cycles = 50.0;
    EXPECT_DOUBLE_EQ(reg.snapshot().number("run.ipc"), 2.0);
    cycles = 25.0;
    EXPECT_DOUBLE_EQ(reg.snapshot().number("run.ipc"), 4.0);
}

TEST(StatsTest, DistributionBinsWithWidth)
{
    stats::Registry reg;
    stats::Distribution &d =
        reg.group("g").distribution("lat", "latencies", 4);
    d.sample(0);
    d.sample(3);  // -> bucket 0
    d.sample(4);  // -> bucket 4
    d.sample(7);  // -> bucket 4
    d.sample(8);  // -> bucket 8
    EXPECT_EQ(d.count(), 5u);
    EXPECT_DOUBLE_EQ(d.mean(), (0 + 3 + 4 + 7 + 8) / 5.0);
    ASSERT_EQ(d.buckets().size(), 3u);
    EXPECT_EQ(d.buckets().at(0), 2u);
    EXPECT_EQ(d.buckets().at(4), 2u);
    EXPECT_EQ(d.buckets().at(8), 1u);
}

TEST(StatsTest, DistributionBinsNegativesTowardMinusInfinity)
{
    stats::Registry reg;
    stats::Distribution &d =
        reg.group("g").distribution("delta", "", 4);
    d.sample(-1); // floor(-1/4)*4 = -4
    d.sample(-4);
    d.sample(-5); // -> -8
    EXPECT_EQ(d.buckets().at(-4), 2u);
    EXPECT_EQ(d.buckets().at(-8), 1u);
    EXPECT_EQ(d.min(), -5);
    EXPECT_EQ(d.max(), -1);
}

TEST(StatsTest, DistributionSampleWeights)
{
    stats::Registry reg;
    stats::Distribution &d = reg.group("g").distribution("w");
    d.sample(2, 10);
    d.sample(3, 5);
    EXPECT_EQ(d.count(), 15u);
    EXPECT_DOUBLE_EQ(d.sum(), 2.0 * 10 + 3.0 * 5);
}

TEST(StatsTest, JsonRoundTripPreservesTree)
{
    stats::Registry reg;
    stats::Group &g = reg.group("issue", "issue engine");
    g.counter("instructions").inc(12345);
    g.scalar("ipc").set(2.5);
    g.group("stall").counter("raw_latency").inc(678);
    stats::Distribution &d = g.distribution("widths");
    d.sample(1, 3);
    d.sample(4, 7);

    Json out = reg.json();
    Json back = Json::parse(out.dump(2));
    EXPECT_EQ(out, back);
    EXPECT_DOUBLE_EQ(back.at("issue.instructions")->asNumber(),
                     12345.0);
    EXPECT_DOUBLE_EQ(back.at("issue.stall.raw_latency")->asNumber(),
                     678.0);
    EXPECT_DOUBLE_EQ(back.at("issue.widths.count")->asNumber(), 10.0);
}

TEST(StatsTest, SnapshotDottedLookup)
{
    stats::Registry reg;
    reg.group("a").group("b").scalar("c").set(42.0);
    stats::StatsSnapshot snap = reg.snapshot();
    EXPECT_FALSE(snap.empty());
    EXPECT_DOUBLE_EQ(snap.number("a.b.c"), 42.0);
    EXPECT_DOUBLE_EQ(snap.number("a.b.missing", -1.0), -1.0);
    EXPECT_EQ(snap.at("nope"), nullptr);
}

TEST(StatsTest, DumpEmitsDottedRows)
{
    stats::Registry reg;
    stats::Group &g = reg.group("run");
    g.counter("instructions", "dynamic instructions").inc(7);
    g.scalar("ipc").set(1.75);
    std::ostringstream os;
    reg.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("run.instructions"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);
    EXPECT_NE(text.find("# dynamic instructions"), std::string::npos);
}

// ------------------------------------------------------ support/json

TEST(JsonTest, ParseRejectsMalformedInput)
{
    setLoggingThrows(true);
    EXPECT_THROW(Json::parse("{"), FatalError);
    EXPECT_THROW(Json::parse("[1,]"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\":1,}"), FatalError);
    EXPECT_THROW(Json::parse("1 2"), FatalError);
    EXPECT_THROW(Json::parse("'single'"), FatalError);
    setLoggingThrows(false);
}

TEST(JsonTest, IntegersRoundTripExactly)
{
    Json big(std::uint64_t{1} << 52);
    Json parsed = Json::parse(big.dump());
    EXPECT_EQ(big, parsed);
    EXPECT_EQ(Json::parse("9007199254740992").asNumber(),
              9007199254740992.0);
}

TEST(JsonTest, StringEscapesRoundTrip)
{
    Json s(std::string("line\n\"quoted\"\ttab\\slash"));
    EXPECT_EQ(Json::parse(s.dump()), s);
}

TEST(JsonTest, SetOverwritesInPlace)
{
    Json o = Json::object();
    o.set("a", Json(1));
    o.set("b", Json(2));
    o.set("a", Json(3));
    EXPECT_EQ(o.size(), 2u);
    EXPECT_DOUBLE_EQ(o.find("a")->asNumber(), 3.0);
    // Insertion order is preserved.
    EXPECT_EQ(o.asObject().front().first, "a");
}

// ------------------------------------------------- SS_DEBUG channels

TEST(DebugFlagsTest, SetDebugFlagsControlsChannels)
{
    setDebugFlags("issue,cache");
    EXPECT_TRUE(debugFlagEnabled("issue"));
    EXPECT_TRUE(debugFlagEnabled("cache"));
    EXPECT_FALSE(debugFlagEnabled("sched"));

    setDebugFlags("all");
    EXPECT_TRUE(debugFlagEnabled("sched"));

    setDebugFlags("");
    EXPECT_FALSE(debugFlagEnabled("issue"));
}

} // namespace
} // namespace ilp
