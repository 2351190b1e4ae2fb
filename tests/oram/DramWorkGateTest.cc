/**
 * Tier-1 work-counter gate for the path DRAM schedule.
 *
 * A path's off-chip buckets fall into sub-tree groups of
 * AddressMap::subtreeLevels() levels, each in one DRAM row, so
 * TinyOram schedules a path as one DramModel::scheduleRun per group.
 * DramModel::scheduleSteps() counts the scheduleBlock evaluations
 * behind those runs.  Two trees are pinned:
 *
 *  - the service tree (2^12 blocks, Z = 5, L = 10, sub-trees of 4
 *    levels): 3 steps per path access, where one step per slot
 *    takes 55;
 *  - the payload batch tree (2^16 data blocks, recursive position
 *    map, L = 14): one step per off-chip group, 4 per path access
 *    where one step per slot takes 75.
 *
 * Either way the simulated DRAM traffic is still one read or write
 * per slot: DramStats.reads + writes per path stays Z times the
 * off-chip levels.  All counts are exact, independent of the machine
 * and its load.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "mem/AddressMap.hh"
#include "sim/Controller.hh"
#include "sim/System.hh"

using namespace sboram;

namespace {

constexpr std::uint64_t kMisses = 3000;

struct GateResult
{
    std::uint64_t paths = 0;      ///< Path reads plus path writes.
    std::uint64_t steps = 0;      ///< scheduleBlock evaluations.
    std::uint64_t slots = 0;      ///< DramStats reads + writes.
    unsigned offChipLevels = 0;
    unsigned groups = 0;          ///< Off-chip sub-tree groups.
};

GateResult
runGate(const SystemConfig &cfg)
{
    Controller ctrl(cfg, Controller::FrontEnd::Batch, 1);
    TinyOram &oram = ctrl.oram();
    const std::uint64_t stepsBefore = ctrl.dram().scheduleSteps();
    Cycles t = 0;
    for (const LlcMissRecord &rec : makeTrace("mcf", kMisses, 7)) {
        t = oram.access(rec.addr % cfg.oram.dataBlocks,
                        rec.isWrite ? Op::Write : Op::Read, t)
                .completeAt;
    }

    GateResult r;
    r.paths = oram.stats().pathReads + oram.stats().pathWrites;
    r.steps = ctrl.dram().scheduleSteps() - stepsBefore;
    r.slots = ctrl.dram().stats().reads + ctrl.dram().stats().writes;
    const unsigned levels = oram.geometry().leafLevel + 1;
    const unsigned ttl = oram.treetopLevels();
    const unsigned span =
        AddressMap(cfg.dramGeometry, levels, cfg.oram.slotsPerBucket)
            .subtreeLevels();
    r.offChipLevels = levels - ttl;
    r.groups = (levels - 1) / span - ttl / span + 1;
    std::printf("paths=%llu steps=%llu (%.2f/path) slots=%llu "
                "(%.2f/path) off-chip levels=%u groups=%u\n",
                static_cast<unsigned long long>(r.paths),
                static_cast<unsigned long long>(r.steps),
                static_cast<double>(r.steps) /
                    static_cast<double>(r.paths),
                static_cast<unsigned long long>(r.slots),
                static_cast<double>(r.slots) /
                    static_cast<double>(r.paths),
                r.offChipLevels, r.groups);
    return r;
}

} // namespace

TEST(DramWorkGate, ServiceTree)
{
    // svc-ladder's controller: Tiny, 2^12 blocks, on-chip position map.
    SystemConfig cfg;
    cfg.scheme = Scheme::Tiny;
    cfg.oram.dataBlocks = std::uint64_t(1) << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    const GateResult r = runGate(cfg);

    ASSERT_GT(r.paths, kMisses);
    ASSERT_EQ(r.offChipLevels, 11u);  // L = 10, no treetop.
    EXPECT_EQ(r.groups, 3u);
    EXPECT_EQ(r.steps, 3 * r.paths);
    EXPECT_EQ(r.slots, 55 * r.paths);
}

TEST(DramWorkGate, BatchTree)
{
    // The payload batch benchmark's shadow controller (RD-only).
    SystemConfig cfg;
    cfg.scheme = Scheme::Shadow;
    cfg.oram.dataBlocks = std::uint64_t(1) << 16;
    cfg.oram.slotsPerBucket = 5;
    cfg.oram.evictionRate = 5;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.plbBytes = 64 * 1024;
    cfg.oram.stashCapacity = 200;
    cfg.oram.payloadEnabled = true;
    cfg.shadow.mode = ShadowMode::RdOnly;
    cfg.shadow.staticLevel = 7;
    cfg.shadow.driCounterBits = 3;
    const GateResult r = runGate(cfg);

    ASSERT_GT(r.paths, kMisses);
    ASSERT_EQ(r.offChipLevels, 15u);  // L = 14, no treetop.
    EXPECT_EQ(r.groups, 4u);
    EXPECT_EQ(r.steps, std::uint64_t(r.groups) * r.paths);
    EXPECT_EQ(r.slots,
              std::uint64_t(cfg.oram.slotsPerBucket) * r.offChipLevels *
                  r.paths);
}
