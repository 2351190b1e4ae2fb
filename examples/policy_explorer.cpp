/**
 * @file
 * Policy explorer: sweep the Shadow Block design space for one
 * workload and print which configuration wins — the programmatic
 * version of the paper's Section VI-B/VI-C tuning discussion.
 *
 * Usage: policy_explorer [workload] [misses]
 *   workload: one of the ten SPEC-like profiles (default hmmer)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/Table.hh"
#include "sim/System.hh"
#include "workload/SpecProfiles.hh"

using namespace sboram;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "hmmer";
    const std::uint64_t misses =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4000;

    SystemConfig base;
    base.oram.dataBlocks = 1 << 16;
    base.timingProtection = true;

    auto trace = makeTrace(workload, misses, 1);

    Table table("Policy exploration for " + workload);
    table.header({"policy", "exec(cycles)", "vs tiny", "DRI share",
                  "shadow fwd", "shadow hits"});

    base.scheme = Scheme::Tiny;
    RunMetrics tiny = runSystem(base, trace);

    auto report = [&](const std::string &name, const RunMetrics &m) {
        table.beginRow(name);
        table.cell(static_cast<std::uint64_t>(m.execTime));
        table.cell(static_cast<double>(m.execTime) /
                       static_cast<double>(tiny.execTime),
                   3);
        table.cell(m.driTime / static_cast<double>(m.execTime), 3);
        table.cell(m.oram.shadowForwards);
        table.cell(m.oram.shadowStashHits);
    };
    report("tiny", tiny);

    base.scheme = Scheme::Shadow;
    base.shadow.mode = ShadowMode::RdOnly;
    report("rd-dup", runSystem(base, trace));

    base.shadow.mode = ShadowMode::HdOnly;
    report("hd-dup", runSystem(base, trace));

    double bestExec = 1e300;
    std::string bestName;
    for (unsigned level : {2u, 4u, 7u, 10u}) {
        base.shadow.mode = ShadowMode::StaticPartition;
        base.shadow.staticLevel = level;
        RunMetrics m = runSystem(base, trace);
        const std::string name =
            "static-" + std::to_string(level);
        report(name, m);
        if (static_cast<double>(m.execTime) < bestExec) {
            bestExec = static_cast<double>(m.execTime);
            bestName = name;
        }
    }

    for (unsigned bits : {1u, 3u, 6u}) {
        base.shadow.mode = ShadowMode::DynamicPartition;
        base.shadow.driCounterBits = bits;
        RunMetrics m = runSystem(base, trace);
        const std::string name =
            "dynamic-" + std::to_string(bits);
        report(name, m);
        if (static_cast<double>(m.execTime) < bestExec) {
            bestExec = static_cast<double>(m.execTime);
            bestName = name;
        }
    }

    table.print();
    std::printf("\nbest policy for %s: %s (%.1f%% of tiny's "
                "execution time)\n",
                workload.c_str(), bestName.c_str(),
                100.0 * bestExec /
                    static_cast<double>(tiny.execTime));
    return 0;
}
