#include <gtest/gtest.h>

#include "sim/System.hh"

using namespace sboram;

namespace {

SystemConfig
smallSys(Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 14;
    cfg.oram.seed = 5;
    return cfg;
}

} // namespace

TEST(SystemFeatures, RecordPerMissProducesMonotoneCurve)
{
    SystemConfig cfg = smallSys(Scheme::Shadow);
    cfg.recordPerMiss = true;
    RunMetrics m = runWorkload(cfg, "hmmer", 800, 3);
    ASSERT_EQ(m.missRetireTimes.size(), 800u);
    for (std::size_t i = 1; i < m.missRetireTimes.size(); ++i) {
        EXPECT_GE(m.missRetireTimes[i] + 1,
                  m.missRetireTimes[i - 1] / 2)
            << "wildly non-monotone at " << i;
    }
    EXPECT_EQ(m.missRetireTimes.back(), m.execTime);
}

TEST(SystemFeatures, ExplicitTpIntervalRespected)
{
    SystemConfig cfg = smallSys(Scheme::Tiny);
    cfg.timingProtection = true;
    cfg.tpInterval = 5000;  // Very slack slots → few dummies.
    RunMetrics slack = runWorkload(cfg, "gobmk", 1500, 3);
    cfg.tpInterval = 900;   // Tight slots → many dummies.
    RunMetrics tight = runWorkload(cfg, "gobmk", 1500, 3);
    EXPECT_GT(tight.oram.dummyAccesses, slack.oram.dummyAccesses);
}

TEST(SystemFeatures, VirtualDummiesDrivePartitionWithoutTp)
{
    SystemConfig cfg = smallSys(Scheme::Shadow);
    cfg.shadow.mode = ShadowMode::DynamicPartition;
    cfg.timingProtection = false;
    cfg.virtualDummies = true;
    RunMetrics withVd = runWorkload(cfg, "namd", 2500, 3);
    // namd's long gaps read as virtual dummies: the partition level
    // should not sit pinned at the maximum (pure HD) the whole time.
    // We can only observe the final level; it must be a legal level.
    EXPECT_LE(withVd.finalPartitionLevel,
              cfg.oram.deriveLevels() + 1);

    cfg.virtualDummies = false;
    RunMetrics without = runWorkload(cfg, "namd", 2500, 3);
    // With no dummy signal at all, real-after-real dominates and the
    // level saturates high.
    EXPECT_GE(without.finalPartitionLevel,
              withVd.finalPartitionLevel);
}

TEST(SystemFeatures, QuickAndFullMissCountsScale)
{
    SystemConfig cfg = smallSys(Scheme::Tiny);
    RunMetrics small = runWorkload(cfg, "astar", 500, 3);
    RunMetrics big = runWorkload(cfg, "astar", 2000, 3);
    EXPECT_GT(big.execTime, small.execTime * 3);
    EXPECT_EQ(small.requests, 500u);
    EXPECT_EQ(big.requests, 2000u);
}

TEST(SystemFeatures, XorCompressionEndToEnd)
{
    SystemConfig cfg = smallSys(Scheme::Tiny);
    cfg.timingProtection = true;
    RunMetrics plain = runWorkload(cfg, "omnetpp", 1500, 3);
    cfg.oram.xorCompression = true;
    RunMetrics xr = runWorkload(cfg, "omnetpp", 1500, 3);
    // XOR never helps more than 2x here and never hurts the path
    // count; forwarding happens at path end.
    EXPECT_EQ(xr.requests, plain.requests);
    EXPECT_GT(static_cast<double>(xr.execTime),
              0.4 * static_cast<double>(plain.execTime));
}

TEST(SystemFeatures, TreetopReducesEnergy)
{
    SystemConfig cfg = smallSys(Scheme::Tiny);
    RunMetrics noTop = runWorkload(cfg, "sjeng", 1500, 3);
    cfg.oram.treetopLevels = 5;
    RunMetrics top = runWorkload(cfg, "sjeng", 1500, 3);
    // On-chip levels skip DRAM: strictly less DRAM activity.
    EXPECT_LT(top.energy, noTop.energy);
}

TEST(SystemFeatures, OutOfOrderWindowMatters)
{
    SystemConfig cfg = smallSys(Scheme::Tiny);
    cfg.cpu = CpuKind::OutOfOrder;
    cfg.cores = 1;
    cfg.window = 1;
    RunMetrics narrow = runWorkload(cfg, "libquantum", 1500, 3);
    cfg.window = 16;
    RunMetrics wide = runWorkload(cfg, "libquantum", 1500, 3);
    // libquantum is mostly independent misses: a wider window
    // overlaps more of them.
    EXPECT_LE(wide.execTime, narrow.execTime);
}
