#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/Stats.hh"

using namespace sboram;

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        acc.sample(v);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_NEAR(acc.variance(), 1.25, 1e-9);
}

TEST(Accumulator, VarianceSurvivesLargeOffset)
{
    // Regression: the old sum-of-squares variance (E[x^2] - E[x]^2)
    // cancels catastrophically when the mean dwarfs the spread —
    // samples around 1e9 with unit spacing returned 0 or a negative
    // variance.  Welford's update keeps full precision.
    Accumulator acc;
    acc.sample(1e9 + 1.0);
    acc.sample(1e9 + 2.0);
    acc.sample(1e9 + 3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 1e9 + 2.0);
    EXPECT_NEAR(acc.variance(), 2.0 / 3.0, 1e-9);
    EXPECT_GE(acc.variance(), 0.0);
}

TEST(Accumulator, SumIsStillExactTotals)
{
    Accumulator acc;
    for (double v : {0.25, 0.5, 0.75})
        acc.sample(v);
    EXPECT_DOUBLE_EQ(acc.sum(), 1.5);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, ResetClears)
{
    Accumulator acc;
    acc.sample(10.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    acc.sample(3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
}

TEST(Histogram, BinningAndOverflow)
{
    Histogram h(4, 10.0);  // bins [0,10) [10,20) [20,30) [30,40) +of
    h.sample(0.0);
    h.sample(9.9);
    h.sample(10.0);
    h.sample(35.0);
    h.sample(1000.0);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 0u);
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_EQ(h.counts()[4], 1u);  // overflow bin
    EXPECT_EQ(h.summary().count(), 5u);
}

TEST(Means, GeometricMean)
{
    EXPECT_NEAR(gmean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(gmean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_EQ(gmean({}), 0.0);
}

TEST(Means, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(amean({}), 0.0);
}

TEST(Means, GmeanLeqAmean)
{
    std::vector<double> v{0.5, 3.0, 7.0, 1.2};
    EXPECT_LE(gmean(v), amean(v));
}

namespace {

/** 1..n, ascending. */
std::vector<std::uint64_t>
ranks(std::uint64_t n)
{
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(NearestRank, EmptySampleIsZero)
{
    EXPECT_EQ(nearestRank({}, 500), 0u);
    EXPECT_EQ(nearestRank({}, 999), 0u);
}

TEST(NearestRank, SingleSampleIsEveryPercentile)
{
    for (std::uint64_t q : {0u, 1u, 500u, 990u, 999u, 1000u})
        EXPECT_EQ(nearestRank({42}, q), 42u) << "q=" << q;
}

TEST(NearestRank, RankIsCeilingOfNq)
{
    // Rank ceil(n * q / 1000) over the sample 1..n is the value itself.
    struct Row
    {
        std::uint64_t n, p50, p99, p999;
    };
    for (const Row &r : {Row{999, 500, 990, 999}, Row{1000, 500, 990, 999},
                         Row{1001, 501, 991, 1000}}) {
        const auto v = ranks(r.n);
        EXPECT_EQ(nearestRank(v, 500), r.p50) << "n=" << r.n;
        EXPECT_EQ(nearestRank(v, 990), r.p99) << "n=" << r.n;
        EXPECT_EQ(nearestRank(v, 999), r.p999) << "n=" << r.n;
        EXPECT_EQ(nearestRank(v, 1000), r.n) << "n=" << r.n;
        EXPECT_EQ(nearestRank(v, 0), 1u) << "n=" << r.n;
    }
}

TEST(SortedCut, EmptySampleIsAllZero)
{
    const SortedCut cut = sortedCut({});
    EXPECT_EQ(cut.count, 0u);
    EXPECT_EQ(cut.p50, 0u);
    EXPECT_EQ(cut.p999, 0u);
    EXPECT_EQ(cut.max, 0u);
    EXPECT_EQ(cut.total, 0u);
}

TEST(SortedCut, SortsThenCuts)
{
    std::vector<std::uint64_t> v = ranks(1001);
    std::reverse(v.begin(), v.end());
    const SortedCut cut = sortedCut(v);
    EXPECT_EQ(cut.count, 1001u);
    EXPECT_EQ(cut.p50, 501u);
    EXPECT_EQ(cut.p99, 991u);
    EXPECT_EQ(cut.p999, 1000u);
    EXPECT_EQ(cut.max, 1001u);
    EXPECT_EQ(cut.total, 1001u * 1002u / 2);
}
