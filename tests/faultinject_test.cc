/**
 * Tests for the seeded fault-injection registry
 * (support/faultinject.hh): plan parsing, the disabled fast path,
 * per-kind firing behaviour, seed determinism, wildcard sites, and
 * the transient/permanent E-code classification the sweep retry
 * logic keys on.
 */

#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/diag.hh"
#include "support/faultinject.hh"

namespace ilp {
namespace {

/** Every test leaves the process-global plan disarmed. */
class FaultInjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(FaultInjectTest, DisabledByDefault)
{
    EXPECT_FALSE(fault::enabled());
    EXPECT_NO_THROW(fault::maybeInject("cell"));
}

TEST_F(FaultInjectTest, ConfigureParsesValidPlans)
{
    EXPECT_TRUE(fault::configure("cell:trap:0.5:42"));
    EXPECT_TRUE(fault::enabled());
    EXPECT_TRUE(fault::configure(
        "compile:alloc:0.01:1,execute:trap:1:2,*:alloc:0.25:3"));
    EXPECT_TRUE(fault::configure("")); // empty plan disarms
    EXPECT_FALSE(fault::enabled());
}

TEST_F(FaultInjectTest, ConfigureRejectsMalformedPlans)
{
    EXPECT_FALSE(fault::configure("cell:trap:0.5")); // missing seed
    EXPECT_FALSE(fault::configure("cell:trap:nope:1"));
    EXPECT_FALSE(fault::configure("cell:trap:1.5:1")); // rate > 1
    EXPECT_FALSE(fault::configure("cell:trap:-0.5:1"));
    EXPECT_FALSE(fault::configure("cell:frobnicate:0.5:1"));
    EXPECT_FALSE(fault::configure("cell:evict:0.5:1")); // not a kind
    EXPECT_FALSE(fault::configure("cell:trap:0.5:1:extra"));
    // A bad plan disarms rather than half-applying.
    EXPECT_FALSE(fault::enabled());
}

TEST_F(FaultInjectTest, RateOneTrapAlwaysFiresWithStableCode)
{
    ASSERT_TRUE(fault::configure("cell:trap:1:7"));
    const std::uint64_t before = fault::injectedCount();
    try {
        fault::maybeInject("cell");
        FAIL() << "expected an injected DiagException";
    } catch (const DiagException &e) {
        ASSERT_EQ(e.diags().size(), 1u);
        EXPECT_EQ(e.diags()[0].code, ErrCode::TrapTransientFault);
    }
    EXPECT_EQ(fault::injectedCount(), before + 1);
}

TEST_F(FaultInjectTest, RateZeroNeverFires)
{
    ASSERT_TRUE(fault::configure("cell:trap:0:7"));
    for (int i = 0; i < 1000; ++i)
        EXPECT_NO_THROW(fault::maybeInject("cell"));
    EXPECT_EQ(fault::injectedCount(), 0u);
}

TEST_F(FaultInjectTest, AllocKindThrowsBadAlloc)
{
    ASSERT_TRUE(fault::configure("compile:alloc:1:9"));
    EXPECT_THROW(fault::maybeInject("compile"), std::bad_alloc);
}

TEST_F(FaultInjectTest, SiteMismatchDoesNotFire)
{
    ASSERT_TRUE(fault::configure("compile:trap:1:9"));
    EXPECT_NO_THROW(fault::maybeInject("cell"));
    EXPECT_NO_THROW(fault::maybeInject("execute"));
}

TEST_F(FaultInjectTest, WildcardMatchesEverySite)
{
    ASSERT_TRUE(fault::configure("*:trap:1:9"));
    EXPECT_THROW(fault::maybeInject("cell"), DiagException);
    EXPECT_THROW(fault::maybeInject("anything"), DiagException);
}

/** The firing pattern of a seeded plan is a pure function of
 *  (site, seed, draw index): re-arming the same plan replays the
 *  exact same decision sequence. */
TEST_F(FaultInjectTest, SeededDrawSequenceIsDeterministic)
{
    auto pattern = [&](const char *spec) {
        fault::reset();
        EXPECT_TRUE(fault::configure(spec));
        std::vector<bool> fired;
        for (int i = 0; i < 200; ++i) {
            try {
                fault::maybeInject("cell");
                fired.push_back(false);
            } catch (const DiagException &) {
                fired.push_back(true);
            }
        }
        return fired;
    };
    const std::vector<bool> a = pattern("cell:trap:0.3:1234");
    const std::vector<bool> b = pattern("cell:trap:0.3:1234");
    const std::vector<bool> c = pattern("cell:trap:0.3:999");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c); // different seed, different pattern

    // And the rate is honoured statistically (exact for this seed).
    int fires = 0;
    for (bool f : a)
        fires += f ? 1 : 0;
    EXPECT_GT(fires, 200 * 0.15);
    EXPECT_LT(fires, 200 * 0.45);
}

/** The "exit" kind kills the process at exactly the seeded draw
 *  index — the deterministic kill-mid-sweep switch. */
TEST_F(FaultInjectTest, ExitKindKillsAtTheSeededDrawIndex)
{
    EXPECT_EXIT(
        {
            fault::configure("cell:exit:1:2");
            fault::maybeInject("cell"); // draw 0
            fault::maybeInject("cell"); // draw 1
            fault::maybeInject("cell"); // draw 2 == seed: _exit
        },
        ::testing::ExitedWithCode(137), "");
}

// --------------------------------------- transient classification

TEST(ErrCodeTransientTest, OnlyEnvironmentalFailuresAreTransient)
{
    EXPECT_TRUE(errCodeTransient(ErrCode::TrapTransientFault));
    EXPECT_TRUE(errCodeTransient(ErrCode::ResourceExhausted));
    // A deadline overrun reproduces on retry (the simulator is
    // deterministic): permanent.
    EXPECT_FALSE(errCodeTransient(ErrCode::TrapDeadlineExceeded));
    EXPECT_FALSE(errCodeTransient(ErrCode::TrapDivideByZero));
    EXPECT_FALSE(errCodeTransient(ErrCode::Internal));
    EXPECT_FALSE(errCodeTransient(ErrCode::None));
}

TEST(ErrCodeTransientTest, NewCodesHaveStableIdsAndNames)
{
    EXPECT_STREQ(errCodeId(ErrCode::TrapTransientFault), "E0409");
    EXPECT_STREQ(errCodeId(ErrCode::TrapDeadlineExceeded), "E0410");
    EXPECT_STREQ(errCodeId(ErrCode::ResourceExhausted), "E0903");
}

} // namespace
} // namespace ilp
