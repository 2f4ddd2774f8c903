/** Tests for the cache model and Table 5-1 arithmetic. */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

TEST(CacheTest, ColdMissesThenHits)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.lineBytes = 32;
    cfg.associativity = 1;
    Cache c(cfg);
    EXPECT_FALSE(c.access(0));      // cold miss
    EXPECT_TRUE(c.access(8));       // same line
    EXPECT_TRUE(c.access(24));      // same line
    EXPECT_FALSE(c.access(32));     // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.accesses(), 4u);
}

TEST(CacheTest, DirectMappedConflicts)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.lineBytes = 32;
    cfg.associativity = 1;
    Cache c(cfg);
    // Addresses 0 and 1024 map to the same set: they evict each other.
    c.access(0);
    c.access(1024);
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(1024));
    EXPECT_EQ(c.misses(), 4u);
}

TEST(CacheTest, TwoWayAssociativityAbsorbsThePingPong)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.lineBytes = 32;
    cfg.associativity = 2;
    Cache c(cfg);
    c.access(0);
    c.access(1024);
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(1024));
}

TEST(CacheTest, LruEvictsTheColdestWay)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64;
    cfg.lineBytes = 32;
    cfg.associativity = 2; // one set, two ways
    Cache c(cfg);
    c.access(0);    // A
    c.access(64);   // B
    c.access(0);    // touch A: B is now LRU
    c.access(128);  // C evicts B
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(64));
}

TEST(CacheTest, MissRatio)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64;
    cfg.lineBytes = 32;
    Cache c(cfg);
    c.access(0);
    c.access(0);
    c.access(0);
    c.access(0);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.25);
}

TEST(CacheTest, RejectsBadGeometry)
{
    setLoggingThrows(true);
    CacheConfig bad;
    bad.sizeBytes = 1000; // not a power of two
    EXPECT_THROW(Cache c(bad), FatalError);
    CacheConfig bad2;
    bad2.associativity = 0;
    EXPECT_THROW(Cache c(bad2), FatalError);
    setLoggingThrows(false);
}

TEST(CacheTest, CountsWhatTheStatsGroupReads)
{
    // The stats tree's "cache" group reads these counters; which
    // addresses reach the cache is the VM's part, held to the
    // interpreter's per-record stream in bytecode_test.
    CacheConfig cfg;
    cfg.missPenaltyCycles = 12.0;
    Cache c(cfg);
    c.access(0x2000);
    c.access(0x2000);
    c.access(0x2008); // same 32-byte line
    c.access(0x4000);
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_DOUBLE_EQ(c.missCycles(), 24.0);
}

// --- Table 5-1 -----------------------------------------------------

TEST(MissCostTest, Table51Rows)
{
    const auto &rows = paperMissCostRows();
    ASSERT_EQ(rows.size(), 3u);

    // VAX 11/780: 10 cpi, 200ns cycle, 1200ns memory -> 6 cycles,
    // 0.6 instruction times.
    EXPECT_DOUBLE_EQ(rows[0].missCostCycles(), 6.0);
    EXPECT_DOUBLE_EQ(rows[0].missCostInstr(), 0.6);

    // WRL Titan: 1.4 cpi, 45ns, 540ns -> 12 cycles, ~8.6 instrs.
    EXPECT_DOUBLE_EQ(rows[1].missCostCycles(), 12.0);
    EXPECT_NEAR(rows[1].missCostInstr(), 8.57, 0.01);

    // "?": 0.5 cpi, 5ns, 350ns -> 70 cycles, 140 instrs.
    EXPECT_DOUBLE_EQ(rows[2].missCostCycles(), 70.0);
    EXPECT_DOUBLE_EQ(rows[2].missCostInstr(), 140.0);
}

TEST(MissCostTest, Section51DilutionArithmetic)
{
    // §5.1: 2.0 cpi machine (1.0 issue + 1.0 miss burden) gaining
    // 3-wide issue (0.5 issue cpi): overall 2.0/1.5 = 33%, versus
    // 100% when misses are ignored.
    EXPECT_NEAR(speedupWithMissBurden(1.0, 0.5, 1.0), 2.0 / 1.5,
                1e-12);
    EXPECT_DOUBLE_EQ(speedupWithMissBurden(1.0, 0.5, 0.0), 2.0);
}

} // namespace
} // namespace ilp
