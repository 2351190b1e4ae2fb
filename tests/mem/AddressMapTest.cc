#include <gtest/gtest.h>

#include <set>

#include "MappingOracle.hh"
#include "mem/AddressMap.hh"

using namespace sboram;

namespace {

DramGeometry
defaultGeo()
{
    return DramGeometry{};
}

} // namespace

TEST(AddressMap, LevelOfHeapIndex)
{
    EXPECT_EQ(AddressMap::levelOf(0), 0u);
    EXPECT_EQ(AddressMap::levelOf(1), 1u);
    EXPECT_EQ(AddressMap::levelOf(2), 1u);
    EXPECT_EQ(AddressMap::levelOf(3), 2u);
    EXPECT_EQ(AddressMap::levelOf(6), 2u);
    EXPECT_EQ(AddressMap::levelOf(7), 3u);
}

TEST(AddressMap, SubtreeLevelsFitARow)
{
    AddressMap map(defaultGeo(), 19, 5);
    // A bucket is 5*64 = 320 B; an 8 KB row holds a 4-level subtree
    // (15 buckets, 4800 B) but not a 5-level one (31 buckets).
    EXPECT_EQ(map.subtreeLevels(), 4u);
}

TEST(AddressMap, SlotsOfOneBucketShareARow)
{
    AddressMap map(defaultGeo(), 19, 5);
    DramCoord first = map.mapSlot(100, 0);
    for (unsigned s = 1; s < 5; ++s) {
        DramCoord c = map.mapSlot(100, s);
        EXPECT_EQ(c.channel, first.channel);
        EXPECT_EQ(c.bank, first.bank);
        EXPECT_EQ(c.row, first.row);
        EXPECT_EQ(c.column, first.column + s);
    }
}

TEST(AddressMap, SubtreeBucketsShareARow)
{
    AddressMap map(defaultGeo(), 19, 5);
    // Buckets 0..14 form the first 4-level subtree.
    DramCoord root = map.mapSlot(0, 0);
    for (BucketIndex b = 1; b < 15; ++b) {
        DramCoord c = map.mapSlot(b, 0);
        EXPECT_EQ(c.channel, root.channel) << "bucket " << b;
        EXPECT_EQ(c.row, root.row) << "bucket " << b;
    }
    // Bucket 15 starts the next group and must land elsewhere.
    DramCoord next = map.mapSlot(15, 0);
    EXPECT_TRUE(next.channel != root.channel || next.rank != root.rank ||
                next.bank != root.bank || next.row != root.row);
}

TEST(AddressMap, NoTwoSlotsCollide)
{
    AddressMap map(defaultGeo(), 9, 4);
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    const BucketIndex buckets = (BucketIndex(1) << 9) - 1;
    for (BucketIndex b = 0; b < buckets; ++b) {
        for (unsigned s = 0; s < 4; ++s) {
            DramCoord c = map.mapSlot(b, s);
            auto key = std::make_tuple(c.channel, c.rank, c.bank,
                                       c.row, c.column);
            EXPECT_TRUE(seen.insert(key).second)
                << "collision at bucket " << b << " slot " << s;
        }
    }
}

TEST(AddressMap, PathTouchesMultipleChannels)
{
    AddressMap map(defaultGeo(), 19, 5);
    // Walk a path root→leaf and count distinct (channel) values; the
    // subtree striping should engage both channels.
    std::set<unsigned> channels;
    LeafLabel leaf = 0x2a5a5;
    const unsigned leafLevel = 18;
    for (unsigned level = 0; level <= leafLevel; ++level) {
        BucketIndex b = ((BucketIndex(1) << level) - 1) +
                        (leaf >> (leafLevel - level));
        channels.insert(map.mapSlot(b, 0).channel);
    }
    EXPECT_EQ(channels.size(), 2u);
}

TEST(AddressMap, FlatMappingInterleavesChannels)
{
    AddressMap map(defaultGeo(), 2, 1);
    EXPECT_NE(map.mapFlat(0).channel, map.mapFlat(1).channel);
}

TEST(AddressMap, FlatMappingDistinct)
{
    AddressMap map(defaultGeo(), 2, 1);
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    for (Addr a = 0; a < 4096; ++a) {
        DramCoord c = map.mapFlat(a);
        auto key = std::make_tuple(c.channel, c.rank, c.bank, c.row,
                                   c.column);
        EXPECT_TRUE(seen.insert(key).second) << "addr " << a;
    }
}

TEST(AddressMap, BucketMappingMatchesPerSlotReference)
{
    for (unsigned z : {4u, 5u})
        EXPECT_EQ(test::bucketMappingMismatches(defaultGeo(), z), 0u)
            << "Z=" << z;
}
