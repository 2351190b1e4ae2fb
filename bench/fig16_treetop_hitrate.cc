/**
 * @file
 * Fig. 16 — on-chip hit rate (stash + treetop cache) with treetop-3
 * and treetop-7 caching, with and without shadow blocks.  Shadow
 * copies stored in the dummy slots of on-chip tree levels turn nonce
 * storage into useful cache capacity; the paper measures ~2.2x higher
 * hit rates.
 */

#include "BenchUtil.hh"

using namespace sboram;
using namespace sboram::bench;

static int
runBench()
{
    SystemConfig base = paperSystem();
    base.timingProtection = true;  // Matches the paper's Section VI-D.

    Table t("Fig. 16 — on-chip hit rate of stash + treetop caching");
    t.header({"workload", "treetop-3", "SB+treetop-3", "treetop-7",
              "SB+treetop-7"});

    std::vector<std::vector<Future<RunMetrics>>> rows;
    for (const std::string &wl : benchWorkloads()) {
        auto point = [&](unsigned levels, bool shadow) {
            SystemConfig cfg = withScheme(
                base, shadow ? Scheme::Shadow : Scheme::Tiny,
                ShadowMode::DynamicPartition, 4, 3);
            cfg.oram.treetopLevels = levels;
            return submitPoint(cfg, wl);
        };
        rows.push_back({point(3, false), point(3, true),
                        point(7, false), point(7, true)});
    }

    std::vector<double> t3, s3, t7, s7;
    std::size_t rowIdx = 0;
    for (const std::string &wl : benchWorkloads()) {
        std::vector<Future<RunMetrics>> &row = rows[rowIdx++];
        const double a = row[0].get().onChipHitRate();
        const double b = row[1].get().onChipHitRate();
        const double c = row[2].get().onChipHitRate();
        const double d = row[3].get().onChipHitRate();
        t.beginRow(wl);
        t.cell(a);
        t.cell(b);
        t.cell(c);
        t.cell(d);
        t3.push_back(a);
        s3.push_back(b);
        t7.push_back(c);
        s7.push_back(d);
    }
    t.beginRow("mean");
    t.cell(amean(t3));
    t.cell(amean(s3));
    t.cell(amean(t7));
    t.cell(amean(s7));
    t.print();

    std::printf("\npaper: shadow block raises the hit rate to 2.20x "
                "(treetop-3) and 2.17x (treetop-7)\n");
    std::printf("measured: %.2fx (treetop-3), %.2fx (treetop-7)\n",
                amean(s3) / std::max(amean(t3), 1e-9),
                amean(s7) / std::max(amean(t7), 1e-9));
    return 0;
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
