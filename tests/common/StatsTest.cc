#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/Stats.hh"

using namespace sboram;

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
