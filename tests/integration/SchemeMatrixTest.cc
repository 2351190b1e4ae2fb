#include <gtest/gtest.h>

#include <string>

#include "sim/System.hh"

using namespace sboram;

/**
 * Full configuration matrix smoke + sanity: every combination of
 * scheme, timing protection, position-map mode and treetop caching
 * must run to completion with self-consistent metrics.
 */
namespace {

struct MatrixParams
{
    Scheme scheme;
    bool tp;
    PosMapMode posMap;
    unsigned treetop;
};

std::string
matrixName(const ::testing::TestParamInfo<MatrixParams> &info)
{
    const MatrixParams &p = info.param;
    std::string name = p.scheme == Scheme::Insecure ? "Insecure"
                       : p.scheme == Scheme::Tiny   ? "Tiny"
                                                    : "Shadow";
    name += p.tp ? "Tp" : "NoTp";
    name += p.posMap == PosMapMode::OnChip ? "OnChip" : "Recursive";
    name += "T" + std::to_string(p.treetop);
    return name;
}

} // namespace

class SchemeMatrix : public ::testing::TestWithParam<MatrixParams>
{
};

TEST_P(SchemeMatrix, RunsWithConsistentMetrics)
{
    const MatrixParams &p = GetParam();
    SystemConfig cfg;
    cfg.scheme = p.scheme;
    cfg.timingProtection = p.tp;
    cfg.oram.dataBlocks = 1 << 13;
    cfg.oram.posMapMode = p.posMap;
    cfg.oram.treetopLevels = p.treetop;
    cfg.oram.seed = 21;

    RunMetrics m = runWorkload(cfg, "hmmer", 1200, 4);

    EXPECT_EQ(m.requests, 1200u);
    EXPECT_GT(m.execTime, 0u);
    EXPECT_NEAR(m.dataAccessTime + m.driTime,
                static_cast<double>(m.execTime),
                static_cast<double>(m.execTime) * 1e-9);
    EXPECT_GE(m.onChipHitRate(), 0.0);
    EXPECT_LE(m.onChipHitRate(), 1.0);
    EXPECT_GT(m.energy, 0.0);
    if (p.scheme != Scheme::Insecure) {
        EXPECT_GT(m.oram.pathReads, 0u);
        EXPECT_EQ(m.stash.overflowEvents, 0u);
    }
    if (p.scheme == Scheme::Shadow) {
        EXPECT_GT(m.oram.shadowsWritten, 0u);
    }
    if (!p.tp) {
        EXPECT_EQ(m.oram.dummyAccesses, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeMatrix,
    ::testing::Values(
        MatrixParams{Scheme::Insecure, false, PosMapMode::OnChip, 0},
        MatrixParams{Scheme::Tiny, false, PosMapMode::OnChip, 0},
        MatrixParams{Scheme::Tiny, false, PosMapMode::Recursive, 0},
        MatrixParams{Scheme::Tiny, true, PosMapMode::Recursive, 0},
        MatrixParams{Scheme::Tiny, true, PosMapMode::Recursive, 3},
        MatrixParams{Scheme::Shadow, false, PosMapMode::OnChip, 0},
        MatrixParams{Scheme::Shadow, false, PosMapMode::Recursive, 0},
        MatrixParams{Scheme::Shadow, true, PosMapMode::Recursive, 0},
        MatrixParams{Scheme::Shadow, true, PosMapMode::Recursive, 3},
        MatrixParams{Scheme::Shadow, true, PosMapMode::OnChip, 7},
        MatrixParams{Scheme::Shadow, false, PosMapMode::Recursive, 5},
        MatrixParams{Scheme::Tiny, true, PosMapMode::OnChip, 0}),
    matrixName);

TEST(SchemeMatrixExtras, XorPlusTreetopPlusShadowCompose)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Shadow;
    cfg.timingProtection = true;
    cfg.oram.dataBlocks = 1 << 13;
    cfg.oram.xorCompression = true;
    cfg.oram.treetopLevels = 2;
    RunMetrics m = runWorkload(cfg, "astar", 800, 4);
    EXPECT_EQ(m.requests, 800u);
    // XOR disables early forwarding from shadows on path reads, but
    // the rest of the machinery still runs.
    EXPECT_GT(m.oram.shadowsWritten, 0u);
}

TEST(SchemeMatrixExtras, TinyNeverWritesShadows)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Tiny;
    cfg.oram.dataBlocks = 1 << 13;
    RunMetrics m = runWorkload(cfg, "bzip2", 800, 4);
    EXPECT_EQ(m.oram.shadowsWritten, 0u);
    EXPECT_EQ(m.oram.shadowForwards, 0u);
    EXPECT_EQ(m.oram.shadowStashHits, 0u);
}
