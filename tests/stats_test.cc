/** support/json's document model (strict parsing, exact integers,
 *  escapes, ordered objects, dotted lookup) and the SS_DEBUG
 *  channels. */

#include <gtest/gtest.h>

#include "support/json.hh"
#include "support/logging.hh"

namespace ilp {
namespace {

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

TEST(JsonTest, DottedLookupThroughNestedObjects)
{
    Json c = Json::object();
    c.set("c", Json(42.0));
    Json b = Json::object();
    b.set("b", std::move(c));
    Json tree = Json::object();
    tree.set("a", std::move(b));
    EXPECT_EQ(Json::parse(tree.dump(2)), tree);

    const Json *leaf = tree.at("a.b.c");
    ASSERT_NE(leaf, nullptr);
    EXPECT_DOUBLE_EQ(leaf->asNumber(), 42.0);
    ASSERT_NE(tree.at("a.b"), nullptr);
    EXPECT_EQ(tree.at("a.b")->find("c"), leaf);
    EXPECT_EQ(tree.at("a.b.missing"), nullptr);
    EXPECT_EQ(tree.at("a.b.c.d"), nullptr);
    EXPECT_EQ(tree.at("nope"), nullptr);
    EXPECT_EQ(Json().at("a"), nullptr);
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
