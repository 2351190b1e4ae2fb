#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "MappingOracle.hh"
#include "mem/AddressMap.hh"
#include "mem/DramModel.hh"

using namespace sboram;

namespace {

struct GeoParams
{
    unsigned channels;
    unsigned ranks;
    unsigned banks;
    std::uint64_t rowBytes;
    unsigned z;
    unsigned leafLevel;
};

std::string
geoName(const ::testing::TestParamInfo<GeoParams> &info)
{
    const GeoParams &g = info.param;
    return "C" + std::to_string(g.channels) + "R" +
           std::to_string(g.ranks) + "B" + std::to_string(g.banks) +
           "Row" + std::to_string(g.rowBytes) + "Z" +
           std::to_string(g.z) + "L" + std::to_string(g.leafLevel);
}

std::vector<DramCoord>
pathCoords(const AddressMap &map, const GeoParams &g, LeafLabel leaf)
{
    std::vector<DramCoord> coords;
    for (unsigned level = 0; level <= g.leafLevel; ++level) {
        BucketIndex b = ((BucketIndex(1) << level) - 1) +
                        (leaf >> (g.leafLevel - level));
        for (unsigned s = 0; s < g.z; ++s)
            coords.push_back(map.mapSlot(b, s));
    }
    return coords;
}

} // namespace

class DramGeometrySweep : public ::testing::TestWithParam<GeoParams>
{
  protected:
    DramGeometry
    geometry() const
    {
        const GeoParams &g = GetParam();
        DramGeometry geo;
        geo.channels = g.channels;
        geo.ranksPerChannel = g.ranks;
        geo.banksPerRank = g.banks;
        geo.rowBytes = g.rowBytes;
        return geo;
    }
};

TEST_P(DramGeometrySweep, MappingHasNoCollisions)
{
    const GeoParams &g = GetParam();
    AddressMap map(geometry(), g.leafLevel + 1, g.z);
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    const BucketIndex buckets =
        (BucketIndex(2) << std::min(g.leafLevel, 9u)) - 1;
    for (BucketIndex b = 0; b < buckets; ++b) {
        for (unsigned s = 0; s < g.z; ++s) {
            DramCoord c = map.mapSlot(b, s);
            EXPECT_LT(c.channel, g.channels);
            EXPECT_LT(c.rank, g.ranks);
            EXPECT_LT(c.bank, g.banks);
            EXPECT_LT(c.column, g.rowBytes / 64);
            auto key = std::make_tuple(c.channel, c.rank, c.bank,
                                       c.row, c.column);
            EXPECT_TRUE(seen.insert(key).second)
                << "collision at bucket " << b << " slot " << s;
        }
    }
}

TEST_P(DramGeometrySweep, BucketMappingMatchesPerSlotReference)
{
    EXPECT_EQ(test::bucketMappingMismatches(geometry(), GetParam().z),
              0u);
}

TEST_P(DramGeometrySweep, PathReadTerminatesAndIsOrdered)
{
    const GeoParams &g = GetParam();
    DramModel dram(DramTiming::ddr3_1333(), geometry());
    AddressMap map(geometry(), g.leafLevel + 1, g.z);
    auto coords = pathCoords(map, g, (1u << g.leafLevel) - 1);
    BatchTiming bt = dram.accessBatch(1000, coords, false);
    EXPECT_EQ(bt.completion.size(), coords.size());
    Cycles maxDone = 0;
    for (Cycles c : bt.completion) {
        EXPECT_GT(c, 1000u);
        maxDone = std::max(maxDone, c);
    }
    EXPECT_EQ(bt.finish, maxDone);
}

TEST_P(DramGeometrySweep, MoreChannelsNeverSlower)
{
    const GeoParams &g = GetParam();
    if (g.channels != 1)
        GTEST_SKIP() << "only the single-channel base case compares";
    DramGeometry one = geometry();
    DramGeometry two = geometry();
    two.channels = 2;
    AddressMap mapOne(one, g.leafLevel + 1, g.z);
    AddressMap mapTwo(two, g.leafLevel + 1, g.z);
    DramModel dOne(DramTiming::ddr3_1333(), one);
    DramModel dTwo(DramTiming::ddr3_1333(), two);

    std::vector<DramCoord> cOne, cTwo;
    for (unsigned level = 0; level <= g.leafLevel; ++level) {
        BucketIndex b = ((BucketIndex(1) << level) - 1);
        for (unsigned s = 0; s < g.z; ++s) {
            cOne.push_back(mapOne.mapSlot(b, s));
            cTwo.push_back(mapTwo.mapSlot(b, s));
        }
    }
    EXPECT_LE(dTwo.accessBatch(0, cTwo, false).finish,
              dOne.accessBatch(0, cOne, false).finish);
}

TEST_P(DramGeometrySweep, BandwidthNeverExceedsBus)
{
    const GeoParams &g = GetParam();
    DramModel dram(DramTiming::ddr3_1333(), geometry());
    AddressMap map(geometry(), g.leafLevel + 1, g.z);
    auto coords = pathCoords(map, g, 0);
    BatchTiming bt = dram.accessBatch(0, coords, false);
    // The batch can never finish faster than the pure data-bus time.
    const Cycles busBound = coords.size() *
                            DramTiming::ddr3_1333().tBURST /
                            g.channels;
    EXPECT_GE(bt.finish, busBound);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DramGeometrySweep,
    ::testing::Values(
        GeoParams{1, 1, 8, 8192, 4, 10},
        GeoParams{1, 2, 8, 8192, 5, 12},
        GeoParams{2, 1, 8, 8192, 5, 14},
        GeoParams{2, 2, 8, 8192, 5, 18},
        GeoParams{2, 2, 4, 4096, 5, 12},
        GeoParams{4, 2, 8, 16384, 6, 14},
        GeoParams{2, 2, 8, 8192, 2, 10}),
    geoName);
