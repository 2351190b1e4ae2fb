#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>

#include "DramOracle.hh"
#include "MappingOracle.hh"
#include "ckpt/Serde.hh"
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

/** The slots of the path to @p leaf in path-write order: leaf to
 *  root, each bucket's slots in column order. */
std::vector<DramCoord>
writePathCoords(const AddressMap &map, const GeoParams &g,
                LeafLabel leaf)
{
    std::vector<DramCoord> coords;
    for (unsigned level = g.leafLevel + 1; level-- > 0;) {
        BucketIndex b = ((BucketIndex(1) << level) - 1) +
                        (leaf >> (g.leafLevel - level));
        for (unsigned s = 0; s < g.z; ++s)
            coords.push_back(map.mapSlot(b, s));
    }
    return coords;
}

void
expectSameStats(const DramStats &got, const DramStats &want)
{
    EXPECT_EQ(got.activates, want.activates);
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.rowHits, want.rowHits);
    EXPECT_EQ(got.rowMisses, want.rowMisses);
}

std::vector<std::uint8_t>
stateBytes(const DramModel &dram)
{
    ckpt::Serializer out;
    dram.saveState(out);
    return out.buffer();
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

TEST_P(DramGeometrySweep, RunScheduleMatchesPerSlotReference)
{
    const GeoParams &g = GetParam();
    const DramTiming timing = DramTiming::ddr3_1333();
    const AddressMap map(geometry(), g.leafLevel + 1, g.z);
    const LeafLabel leaves = LeafLabel(1) << g.leafLevel;
    // A path splits into one run per sub-tree group.
    const std::uint64_t runsPerPath =
        (g.leafLevel + map.subtreeLevels()) / map.subtreeLevels();
    std::mt19937_64 rng(0x5eed0000 + g.leafLevel * 8 + g.channels);

    enum Kind { PlainReads, CompressedReads, Writes, Interleaved };
    for (Kind kind : {PlainReads, CompressedReads, Writes, Interleaved}) {
        SCOPED_TRACE("sequence kind " + std::to_string(kind));
        const bool compressed = kind == CompressedReads;
        DramModel runs(timing, geometry());
        // Uncompressed sequences also drive a model slot by slot
        // through accessSingle (which has no compressed bus).
        DramModel slots(timing, geometry());
        test::ReferenceDram ref(timing, geometry());
        Cycles start = 0;
        for (int path = 0; path < 48; ++path) {
            const LeafLabel leaf = rng() % leaves;
            const bool isWrite =
                kind == Writes || (kind == Interleaved && rng() % 2);
            const std::vector<DramCoord> coords =
                isWrite ? writePathCoords(map, g, leaf)
                        : pathCoords(map, g, leaf);
            if (kind == Interleaved) {
                // Back to back, overlapping the last path, or idle.
                switch (rng() % 3) {
                case 0:
                    break;
                case 1:
                    start -= std::min<Cycles>(start, rng() % 400);
                    break;
                default:
                    start += rng() % 2000;
                }
                if (rng() % 2) {
                    // Open another row of the first run's bank.
                    DramCoord other = coords.front();
                    other.row += 1 + rng() % 3;
                    const bool w = rng() % 2;
                    const Cycles want = ref.access(start, {other}, w).finish;
                    EXPECT_EQ(runs.accessSingle(start, other, w), want);
                    EXPECT_EQ(slots.accessSingle(start, other, w), want);
                }
            }

            const std::uint64_t stepsBefore = runs.scheduleSteps();
            const BatchTiming want =
                ref.access(start, coords, isWrite, compressed, g.z);
            const BatchTiming got =
                runs.accessBatch(start, coords, isWrite, compressed, g.z);
            ASSERT_EQ(got.completion, want.completion) << "path " << path;
            ASSERT_EQ(got.finish, want.finish) << "path " << path;
            EXPECT_EQ(runs.scheduleSteps() - stepsBefore, runsPerPath);
            expectSameStats(runs.stats(), ref.stats());
            if (!compressed) {
                for (std::size_t i = 0; i < coords.size(); ++i)
                    ASSERT_EQ(slots.accessSingle(start, coords[i], isWrite),
                              want.completion[i])
                        << "path " << path << " slot " << i;
                ASSERT_EQ(stateBytes(runs), stateBytes(slots))
                    << "path " << path;
            }
            start = want.finish;
        }
    }
}

// Doubling the channels never slows the root-most path. Every
// geometry compares against itself with twice its channels, so the
// single-channel ones make the 1 -> 2 comparison and none is skipped.
TEST_P(DramGeometrySweep, MoreChannelsNeverSlower)
{
    const GeoParams &g = GetParam();
    DramGeometry one = geometry();
    DramGeometry two = geometry();
    two.channels = 2 * g.channels;
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
