/**
 * @file
 * Shared implementation of the Eq. 1 breakdown of RD-Dup and HD-Dup
 * against Tiny ORAM (Fig. 8 without timing protection, Fig. 13 with).
 */

#ifndef SBORAM_BENCH_DUPBREAKDOWN_HH
#define SBORAM_BENCH_DUPBREAKDOWN_HH

#include "BenchUtil.hh"

namespace sboram::bench {

inline int
runDupBreakdown(bool timingProtection)
{
    SystemConfig base = paperSystem();
    base.timingProtection = timingProtection;

    Table t(std::string(timingProtection ? "Fig. 13" : "Fig. 8") +
            " — normalized time, RD-Dup / HD-Dup vs Tiny (" +
            (timingProtection ? "with" : "no") +
            " timing protection)");
    std::vector<std::string> header{
        "workload", "Tiny-Data", "Tiny-Intv", "RD-Data", "RD-Intv",
        "RD-Total", "HD-Data",   "HD-Intv",   "HD-Total"};
    if (timingProtection)
        header.push_back("dummies Tiny/RD/HD");
    t.header(header);

    struct Row
    {
        Future<RunMetrics> tiny, rd, hd;
    };
    std::vector<Row> rows;
    for (const std::string &wl : benchWorkloads())
        rows.push_back(
            {submitPoint(withScheme(base, Scheme::Tiny), wl),
             submitPoint(withScheme(base, Scheme::Shadow,
                                    ShadowMode::RdOnly), wl),
             submitPoint(withScheme(base, Scheme::Shadow,
                                    ShadowMode::HdOnly), wl)});

    std::vector<double> rdTotals, hdTotals, rdIntv, hdIntv, rdData,
        hdData;
    std::size_t rowIdx = 0;
    for (const std::string &wl : benchWorkloads()) {
        Row &row = rows[rowIdx++];
        const RunMetrics tiny = getChecked(row.tiny, wl + "/tiny");
        const RunMetrics rd = getChecked(row.rd, wl + "/rd");
        const RunMetrics hd = getChecked(row.hd, wl + "/hd");

        NormalizedTime nt = normalize(tiny, tiny);
        NormalizedTime nr = normalize(rd, tiny);
        NormalizedTime nh = normalize(hd, tiny);
        t.beginRow(wl);
        t.cell(nt.data);
        t.cell(nt.interval);
        t.cell(nr.data);
        t.cell(nr.interval);
        t.cell(nr.total);
        t.cell(nh.data);
        t.cell(nh.interval);
        t.cell(nh.total);
        if (timingProtection)
            t.cell(std::to_string(tiny.oram.dummyAccesses) + "/" +
                   std::to_string(rd.oram.dummyAccesses) + "/" +
                   std::to_string(hd.oram.dummyAccesses));
        rdTotals.push_back(nr.total);
        hdTotals.push_back(nh.total);
        rdData.push_back(nr.data / nt.data);
        hdData.push_back(nh.data / nt.data);
        rdIntv.push_back(nr.interval / nt.interval);
        hdIntv.push_back(nh.interval / nt.interval);
    }
    t.print();

    if (timingProtection) {
        std::printf("\npaper: RD-Dup total -27%%, HD-Dup total -11%% "
                    "with timing protection\n");
        std::printf("measured (gmean): RD total %.3f, HD total %.3f\n",
                    gmean(rdTotals), gmean(hdTotals));
        return 0;
    }
    std::printf("\npaper: RD-Dup cuts DRI most (74%%), HD-Dup cuts "
                "data access time most (12%%)\n");
    std::printf("measured (gmean): RD total %.3f (DRI ratio %.3f, "
                "data ratio %.3f)\n",
                gmean(rdTotals), gmean(rdIntv), gmean(rdData));
    std::printf("measured (gmean): HD total %.3f (DRI ratio %.3f, "
                "data ratio %.3f)\n",
                gmean(hdTotals), gmean(hdIntv), gmean(hdData));
    return 0;
}

} // namespace sboram::bench

#endif // SBORAM_BENCH_DUPBREAKDOWN_HH
