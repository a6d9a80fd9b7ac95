/// Unit tests for src/util: RNG, statistics, table emitter, small vector.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/rng.h"
#include "util/small_vector.h"
#include "util/stats.h"
#include "util/table.h"

namespace caqr {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    util::Rng a(42);
    util::Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    util::Rng a(1);
    util::Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, StreamsAreReproducible)
{
    util::Rng a(7, 3);
    util::Rng b(7, 3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, StreamsDiverge)
{
    // Adjacent streams of one seed must be decorrelated — they seed
    // the per-shot RNGs of the shot-parallel simulator.
    util::Rng a(7, 0);
    util::Rng b(7, 1);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, StreamsDependOnSeed)
{
    util::Rng a(7, 1);
    util::Rng b(8, 1);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    util::Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const double x = rng.next_double();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextBelowRespectsBound)
{
    util::Rng rng(9);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Rng, NextBelowCoversRange)
{
    util::Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveRange)
{
    util::Rng rng(13);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i) {
        const int v = rng.next_int(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliFrequency)
{
    util::Rng rng(17);
    int hits = 0;
    constexpr int kTrials = 20'000;
    for (int i = 0; i < kTrials; ++i) {
        if (rng.next_bool(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    util::Rng rng(19);
    std::vector<double> samples;
    for (int i = 0; i < 20'000; ++i) samples.push_back(rng.next_gaussian());
    EXPECT_NEAR(util::mean(samples), 0.0, 0.05);
    EXPECT_NEAR(util::stddev(samples), 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements)
{
    util::Rng rng(23);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = values;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, values);
}

TEST(Stats, MeanAndStddev)
{
    std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(util::mean(values), 5.0);
    EXPECT_NEAR(util::stddev(values), 2.138, 1e-3);
}

TEST(Stats, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(util::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(util::median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(util::median({}), 0.0);
}

TEST(Stats, MinMax)
{
    std::vector<double> values = {3.0, -1.0, 7.5};
    EXPECT_DOUBLE_EQ(util::min_value(values), -1.0);
    EXPECT_DOUBLE_EQ(util::max_value(values), 7.5);
}

TEST(Stats, TvdIdenticalIsZero)
{
    std::map<std::string, double> p = {{"00", 0.5}, {"11", 0.5}};
    EXPECT_NEAR(util::total_variation_distance(p, p), 0.0, 1e-12);
}

TEST(Stats, TvdDisjointIsOne)
{
    std::map<std::string, double> p = {{"00", 1.0}};
    std::map<std::string, double> q = {{"11", 1.0}};
    EXPECT_NEAR(util::total_variation_distance(p, q), 1.0, 1e-12);
}

TEST(Stats, TvdNormalizesCounts)
{
    // Same distribution at different shot totals.
    std::map<std::string, std::size_t> p = {{"0", 100}, {"1", 300}};
    std::map<std::string, std::size_t> q = {{"0", 25}, {"1", 75}};
    EXPECT_NEAR(util::total_variation_distance(p, q), 0.0, 1e-12);
}

TEST(Stats, TvdHalfOverlap)
{
    std::map<std::string, double> p = {{"a", 0.5}, {"b", 0.5}};
    std::map<std::string, double> q = {{"a", 1.0}};
    EXPECT_NEAR(util::total_variation_distance(p, q), 0.5, 1e-12);
}

TEST(Table, AlignedOutputContainsCells)
{
    util::Table table({"name", "value"});
    table.add_row({"alpha", "1"});
    table.add_row({"beta", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
    EXPECT_EQ(table.num_rows(), 2u);
}

TEST(Table, CsvOutput)
{
    util::Table table({"a", "b"});
    table.add_row({"1", "2"});
    std::ostringstream os;
    table.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded)
{
    util::Table table({"a", "b", "c"});
    table.add_row({"only"});
    std::ostringstream os;
    table.print_csv(os);
    EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}

TEST(Table, FmtHelpers)
{
    EXPECT_EQ(util::Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(util::Table::fmt(static_cast<long long>(42)), "42");
}

using Small = util::SmallVector<int, 3>;

TEST(SmallVector, StaysInlineUpToCapacity)
{
    Small v;
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.is_inline());
    for (int i = 0; i < 3; ++i) v.push_back(10 + i);
    EXPECT_TRUE(v.is_inline());
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.front(), 10);
    EXPECT_EQ(v.back(), 12);
    EXPECT_EQ(v, (std::vector<int>{10, 11, 12}));
    EXPECT_LE(sizeof(Small), 24u);
}

TEST(SmallVector, PushBackSpillsAcrossTheBoundary)
{
    Small v = {1, 2, 3};
    v.push_back(v[0]);  // the argument lives in the buffer that moves
    EXPECT_FALSE(v.is_inline());
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 1}));
    for (int i = 0; i < 40; ++i) v.push_back(i);
    ASSERT_EQ(v.size(), 44u);
    EXPECT_EQ(v[43], 39);
    std::vector<int> seen(v.begin(), v.end());
    EXPECT_EQ(seen.size(), 44u);
    v.clear();
    EXPECT_TRUE(v.empty());
    v.push_back(7);
    EXPECT_EQ(v, (std::vector<int>{7}));
}

TEST(SmallVector, CopyAndMoveInBothStates)
{
    const Small inline_value = {4, 5};
    std::vector<int> wide(27);
    for (int i = 0; i < 27; ++i) wide[static_cast<std::size_t>(i)] = i;
    const Small spilled = wide;
    EXPECT_TRUE(inline_value.is_inline());
    EXPECT_FALSE(spilled.is_inline());

    Small copy = spilled;
    EXPECT_EQ(copy, spilled);
    EXPECT_NE(copy.data(), spilled.data());
    copy = inline_value;  // spilled <- inline
    EXPECT_EQ(copy, inline_value);
    copy = spilled;  // inline-capacity buffer <- spilled
    EXPECT_EQ(copy, wide);

    Small moved = std::move(copy);
    EXPECT_EQ(moved, wide);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    copy = {8, 9, 10};
    EXPECT_EQ(copy, (std::vector<int>{8, 9, 10}));
    Small moved_inline = std::move(copy);
    EXPECT_EQ(moved_inline, (std::vector<int>{8, 9, 10}));
    moved_inline = std::move(moved);  // inline <- spilled, by move
    EXPECT_EQ(moved_inline, wide);
    moved = Small{1};  // a moved-from value takes new contents
    EXPECT_EQ(moved, (std::vector<int>{1}));

    const auto back = static_cast<std::vector<int>>(moved_inline);
    EXPECT_EQ(back, wide);
}

TEST(SmallVector, SelfAssignmentKeepsTheValues)
{
    std::vector<int> wide(9, 3);
    Small spilled = wide;
    Small inline_value = {1, 2};
    Small& spilled_alias = spilled;
    Small& inline_alias = inline_value;
    spilled = spilled_alias;
    inline_value = inline_alias;
    EXPECT_EQ(spilled, wide);
    EXPECT_EQ(inline_value, (std::vector<int>{1, 2}));
    spilled = std::move(spilled_alias);
    EXPECT_EQ(spilled, wide);
}

TEST(SmallVector, EqualityIgnoresWhereTheValuesLive)
{
    Small spilled = {1, 2, 3};
    spilled.push_back(4);
    spilled = {1, 2};  // fits the heap buffer it already has
    const Small inline_value = {1, 2};
    ASSERT_FALSE(spilled.is_inline());
    ASSERT_TRUE(inline_value.is_inline());
    EXPECT_EQ(spilled, inline_value);
    EXPECT_EQ(inline_value, spilled);
    EXPECT_EQ((std::vector<int>{1, 2}), spilled);
    EXPECT_NE(spilled, Small({1, 2, 4}));
    EXPECT_NE(inline_value, Small({1}));

    const util::SmallVector<double, 3> angles = {0.5, -1.0, 2.0};
    EXPECT_EQ(angles, (std::vector<double>{0.5, -1.0, 2.0}));
}

}  // namespace
}  // namespace caqr
