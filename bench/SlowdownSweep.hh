/**
 * @file
 * Shared implementation of the slowdown over the insecure system
 * (Fig. 11 without timing protection, Fig. 15 with): Tiny ORAM, the
 * paper's best static partitioning level (7 without, 4 with) and
 * dynamic-3 starting from that level.
 */

#ifndef SBORAM_BENCH_SLOWDOWNSWEEP_HH
#define SBORAM_BENCH_SLOWDOWNSWEEP_HH

#include "BenchUtil.hh"

namespace sboram::bench {

inline int
runSlowdownSweep(bool timingProtection)
{
    SystemConfig base = paperSystem();
    base.timingProtection = timingProtection;
    const unsigned level = timingProtection ? 4 : 7;

    Table t(std::string(timingProtection ? "Fig. 15" : "Fig. 11") +
            " — slowdown vs insecure system (" +
            (timingProtection ? "with" : "no") +
            " timing protection)");
    t.header({"workload", "Tiny", "static-" + std::to_string(level),
              "dynamic-3", "insecure"});

    struct Row
    {
        Future<RunMetrics> ins, tiny, st, dyn3;
    };
    std::vector<Row> rows;
    for (const std::string &wl : benchWorkloads())
        rows.push_back(
            {submitPoint(withScheme(base, Scheme::Insecure), wl),
             submitPoint(withScheme(base, Scheme::Tiny), wl),
             submitPoint(withScheme(base, Scheme::Shadow,
                                    ShadowMode::StaticPartition, level),
                         wl),
             submitPoint(withScheme(base, Scheme::Shadow,
                                    ShadowMode::DynamicPartition, level,
                                    3),
                         wl)});

    std::vector<double> tinyS, stS, dyn3S;
    std::size_t rowIdx = 0;
    for (const std::string &wl : benchWorkloads()) {
        Row &row = rows[rowIdx++];
        const RunMetrics ins = getChecked(row.ins, wl + "/ins");
        const RunMetrics tiny = getChecked(row.tiny, wl + "/tiny");
        const RunMetrics stm =
            getChecked(row.st, wl + "/st" + std::to_string(level));
        const RunMetrics dyn3 = getChecked(row.dyn3, wl + "/dyn3");

        const double insT = static_cast<double>(ins.execTime);
        t.beginRow(wl);
        t.cell(static_cast<double>(tiny.execTime) / insT, 2);
        t.cell(static_cast<double>(stm.execTime) / insT, 2);
        t.cell(static_cast<double>(dyn3.execTime) / insT, 2);
        t.cell(1.0, 2);
        tinyS.push_back(static_cast<double>(tiny.execTime) / insT);
        stS.push_back(static_cast<double>(stm.execTime) / insT);
        dyn3S.push_back(static_cast<double>(dyn3.execTime) / insT);
    }
    t.beginRow("gmean");
    t.cell(gmean(tinyS), 2);
    t.cell(gmean(stS), 2);
    t.cell(gmean(dyn3S), 2);
    t.cell(1.0, 2);
    t.print();

    if (timingProtection) {
        std::printf("\npaper: static-4 cuts 30%%, dynamic-3 cuts 32%% "
                    "of Tiny's execution time\n");
        std::printf("measured: static-4 cuts %.0f%%, dynamic-3 cuts "
                    "%.0f%%\n",
                    100.0 * (1.0 - gmean(stS) / gmean(tinyS)),
                    100.0 * (1.0 - gmean(dyn3S) / gmean(tinyS)));
        return 0;
    }
    std::printf("\npaper: Tiny ~2.8x, static-7 2.35x (85%% of Tiny), "
                "dynamic-3 2.21x (80%% of Tiny)\n");
    std::printf("measured: Tiny %.2fx, static-7 %.2fx (%.0f%%), "
                "dynamic-3 %.2fx (%.0f%%)\n",
                gmean(tinyS), gmean(stS),
                100.0 * gmean(stS) / gmean(tinyS), gmean(dyn3S),
                100.0 * gmean(dyn3S) / gmean(tinyS));
    return 0;
}

} // namespace sboram::bench

#endif // SBORAM_BENCH_SLOWDOWNSWEEP_HH
