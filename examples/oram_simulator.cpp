/**
 * @file
 * sbsim — the command-line front end of the simulator, for running
 * arbitrary experiment points without writing code.
 *
 * Usage:
 *   oram_simulator [key=value]...
 *
 * Keys (defaults in parentheses):
 *   workload   bzip2|mcf|gobmk|hmmer|sjeng|libquantum|h264ref|
 *              omnetpp|astar|namd              (hmmer)
 *   trace      path to a trace recorded with saveTrace  (unset)
 *   save-trace path to write the generated trace        (unset)
 *   misses     LLC misses to simulate          (20000)
 *   seed       workload seed                   (1)
 *   scheme     insecure|tiny|shadow            (shadow)
 *   policy     rd|hd|static|dynamic            (dynamic)
 *   plevel     static partitioning level       (7)
 *   dribits    DRI counter width               (3)
 *   tp         0|1 timing protection           (0)
 *   tpinterval cycles per request slot, 0=auto (0)
 *   cpu        inorder|o3                      (inorder)
 *   cores      cores for o3                    (4)
 *   blocks     data blocks (64 B each)         (1048576)
 *   treetop    treetop-cached levels           (0)
 *   xor        0|1 XOR compression             (0)
 *   posmap     onchip|recursive                (recursive)
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/Table.hh"
#include "sim/System.hh"
#include "workload/SpecProfiles.hh"
#include "workload/TraceIo.hh"

using namespace sboram;

namespace {

std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            // Constructed in place: GCC 12 reports a spurious
            // -Wrestrict inside std::string's assignment from a
            // literal here.
            kv.emplace("help", "1");
            continue;
        }
        auto eq = arg.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr, "bad argument '%s' (want key=value)\n",
                         arg.c_str());
            std::exit(1);
        }
        kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
    return kv;
}

std::string
get(const std::map<std::string, std::string> &kv,
    const std::string &key, const std::string &dflt)
{
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    auto kv = parseArgs(argc, argv);
    if (kv.count("help")) {
        std::printf("see the header comment of oram_simulator.cpp "
                    "for the full key list\n");
        return 0;
    }

    SystemConfig cfg;
    const std::string scheme = get(kv, "scheme", "shadow");
    cfg.scheme = scheme == "insecure" ? Scheme::Insecure
                 : scheme == "tiny"   ? Scheme::Tiny
                                      : Scheme::Shadow;
    const std::string policy = get(kv, "policy", "dynamic");
    cfg.shadow.mode = policy == "rd"     ? ShadowMode::RdOnly
                      : policy == "hd"   ? ShadowMode::HdOnly
                      : policy == "static"
                          ? ShadowMode::StaticPartition
                          : ShadowMode::DynamicPartition;
    cfg.shadow.staticLevel =
        static_cast<unsigned>(std::stoul(get(kv, "plevel", "7")));
    cfg.shadow.driCounterBits =
        static_cast<unsigned>(std::stoul(get(kv, "dribits", "3")));
    cfg.timingProtection = get(kv, "tp", "0") == "1";
    cfg.tpInterval = std::stoull(get(kv, "tpinterval", "0"));
    cfg.cpu = get(kv, "cpu", "inorder") == "o3"
        ? CpuKind::OutOfOrder
        : CpuKind::InOrder;
    cfg.cores =
        static_cast<unsigned>(std::stoul(get(kv, "cores", "4")));
    cfg.oram.dataBlocks = std::stoull(get(kv, "blocks", "1048576"));
    cfg.oram.treetopLevels =
        static_cast<unsigned>(std::stoul(get(kv, "treetop", "0")));
    cfg.oram.xorCompression = get(kv, "xor", "0") == "1";
    cfg.oram.posMapMode = get(kv, "posmap", "recursive") == "onchip"
        ? PosMapMode::OnChip
        : PosMapMode::Recursive;

    const std::uint64_t misses =
        std::stoull(get(kv, "misses", "20000"));
    const std::uint64_t seed = std::stoull(get(kv, "seed", "1"));
    const std::string workload = get(kv, "workload", "hmmer");

    std::vector<LlcMissRecord> trace;
    if (kv.count("trace")) {
        trace = loadTrace(kv.at("trace"));
        std::printf("replaying %zu misses from %s\n", trace.size(),
                    kv.at("trace").c_str());
    } else {
        trace = makeTrace(workload, misses, seed);
    }
    if (kv.count("save-trace"))
        saveTrace(kv.at("save-trace"), trace);

    RunMetrics m = runSystem(cfg, trace);

    Table t("sbsim results — " +
            (kv.count("trace") ? kv.at("trace") : workload));
    t.header({"metric", "value"});
    t.beginRow("execution time (cycles)");
    t.cell(static_cast<std::uint64_t>(m.execTime));
    t.beginRow("data access time");
    t.cell(m.dataAccessTime, 0);
    t.beginRow("data request interval (DRI)");
    t.cell(m.driTime, 0);
    t.beginRow("LLC requests");
    t.cell(m.requests);
    t.beginRow("dummy ORAM requests");
    t.cell(m.oram.dummyAccesses);
    t.beginRow("stash hits");
    t.cell(m.oram.stashHits);
    t.beginRow("  of which shadow copies");
    t.cell(m.oram.shadowStashHits);
    t.beginRow("path reads");
    t.cell(m.oram.pathReads);
    t.beginRow("shadow blocks written");
    t.cell(m.oram.shadowsWritten);
    t.beginRow("shadow-advanced forwards");
    t.cell(m.oram.shadowForwards);
    t.beginRow("on-chip hit rate");
    t.cell(m.onChipHitRate());
    t.beginRow("memory energy (uJ)");
    t.cell(m.energy / 1e6, 1);
    t.beginRow("peak stash occupancy (real)");
    t.cell(m.stash.peakReal);
    t.beginRow("stash overflows");
    t.cell(m.stash.overflowEvents);
    t.beginRow("final partitioning level");
    t.cell(static_cast<std::uint64_t>(m.finalPartitionLevel));
    t.print();
    return 0;
}
