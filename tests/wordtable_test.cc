/** Tests for the zero-initialized word table behind the data memory,
 *  the issue engine's store ready times and the dependence graph's
 *  last stores. */

#include <cstdint>
#include <fstream>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "sim/wordtable.hh"

namespace ilp {
namespace {

/** The word index the residency checks write at: 64 MB in. */
constexpr std::size_t kFar = std::size_t{1} << 23;

/** Resident bytes of this process, from /proc/self/statm. */
long long
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    long long size = 0, resident = 0;
    statm >> size >> resident;
    return resident * ::sysconf(_SC_PAGESIZE);
}

/** A value no index maps to 0. */
std::uint64_t
valueOf(std::size_t i)
{
    return i * 0x9e3779b97f4a7c15ull + 1;
}

TEST(WordTableTest, ReadsZeroEverywhereBelowItsSize)
{
    const WordTable empty;
    EXPECT_EQ(empty.size(), 0u);

    WordTable t(1000);
    ASSERT_GE(t.size(), 1000u);
    for (std::size_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(t[i], 0u) << i;
    const std::size_t old = t.size();
    t.growTo(3 * old);
    ASSERT_GT(t.size(), 3 * old);
    for (std::size_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(t[i], 0u) << i;
}

TEST(WordTableTest, GrowthKeepsEveryWrittenWord)
{
    WordTable t;
    std::vector<std::size_t> written;
    const std::uint64_t *first = nullptr;
    for (std::size_t k = 0; k <= 20; ++k) {
        const std::size_t i = (std::size_t{1} << k) + 3 * k;
        t.growTo(i);
        ASSERT_GT(t.size(), i);
        // The table grows where it lies.
        if (first == nullptr)
            first = &t[0];
        ASSERT_EQ(&t[0], first) << "moved growing to " << i;
        t[i] = valueOf(i);
        written.push_back(i);
        for (std::size_t j : written)
            ASSERT_EQ(t[j], valueOf(j)) << "word " << j << " after "
                                        << "growing to " << i;
    }
    // Every word not written still reads 0, and a move carries the
    // words along.
    const WordTable moved = std::move(t);
    EXPECT_EQ(t.size(), 0u);
    std::size_t next = 0;
    for (std::size_t i = 0; i < moved.size(); ++i) {
        if (next < written.size() && written[next] == i) {
            ASSERT_EQ(moved[i], valueOf(i)) << i;
            ++next;
        } else {
            ASSERT_EQ(moved[i], 0u) << i;
        }
    }
    EXPECT_EQ(next, written.size());
}

TEST(WordTableTest, RefusesAnIndexPastItsReservation)
{
    WordTable t(10);
    t[3] = 7;
    EXPECT_THROW(t.growTo(WordTable::kMaxWords), std::bad_alloc);
    EXPECT_EQ(t[3], 7u);
    t.growTo(WordTable::kMaxWords - 1);
    EXPECT_EQ(t.size(), WordTable::kMaxWords);
    EXPECT_EQ(t[3], 7u);
    EXPECT_EQ(t[WordTable::kMaxWords - 1], 0u);
}

TEST(WordTableTest, OneFarWordCostsAboutOnePage)
{
    const long long before = residentBytes();
    WordTable t;
    t.growTo(kFar);
    t[kFar] = 1;
    const long long grew = residentBytes() - before;
    EXPECT_LT(grew, 1 << 20) << "resident bytes grew by " << grew;
    EXPECT_EQ(t[kFar], 1u);
    EXPECT_EQ(t[0], 0u);
}

TEST(WordTableTest, ResidencyCheckSeesAZeroFilledVector)
{
    // The control for the check above: the same write into a
    // zero-filled flat vector makes every page below it resident, and
    // /proc/self/statm shows it.
    const long long before = residentBytes();
    std::vector<std::uint64_t> flat(kFar + 1);
    flat[kFar] = 1;
    const long long grew = residentBytes() - before;
    EXPECT_GT(grew, 1 << 20) << "resident bytes grew by " << grew;
    EXPECT_EQ(flat[kFar - 1], 0u);
}

} // namespace
} // namespace ilp
