/**
 * @file
 * Payload-path throughput microbench.
 *
 * The slab ciphertext store and batched OTP keystream exist to make
 * payload-enabled accesses cheap; this bench puts a number on it:
 * end-to-end accesses/second with payloads (real encrypt on every
 * path-write slot, verify+decrypt on every occupied path-read slot)
 * for the Tiny baseline and the two single-queue shadow schemes.
 *
 * Each scheme point is timed individually after a warm-up pass (trace
 * generation and pool growth amortized out), so the number tracks the
 * steady-state hot path.  Results land in BENCH_throughput.json next
 * to the binary, each scheme's rate also as a ratio to the Tiny
 * baseline's (`vs_tiny`; recorded, not gated).  The simulated metrics
 * are asserted identical between the warm-up and the timed pass, so a
 * nondeterministic access path cannot hide behind a throughput
 * report.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "BenchUtil.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

struct SchemePoint
{
    const char *name;
    SystemConfig cfg;
};

std::uint64_t
metricsFingerprint(const RunMetrics &m)
{
    return m.execTime + m.requests * 31 + m.pathReads * 7 +
           m.shadowsWritten * 3;
}

} // namespace

static int
runBench()
{
    // Payload mode materializes one ciphertext stripe per slot, so
    // the tree is kept at 2^16 data blocks (4 MB of lanes) — large
    // enough for a 17-level path, small enough to run everywhere.
    SystemConfig base = paperSystem();
    base.oram.dataBlocks = std::uint64_t(1) << 16;
    base.oram.payloadEnabled = true;

    const std::vector<SchemePoint> schemes = {
        {"tiny", withScheme(base, Scheme::Tiny)},
        {"shadow-rd",
         withScheme(base, Scheme::Shadow, ShadowMode::RdOnly)},
        {"shadow-hd",
         withScheme(base, Scheme::Shadow, ShadowMode::HdOnly)},
    };
    const char *workload = "mcf";
    const std::uint64_t accesses = missesPerRun();

    std::printf("throughput: %llu payload accesses per point, "
                "workload %s\n",
                static_cast<unsigned long long>(accesses), workload);

    struct Row
    {
        const char *name;
        double seconds;
        double accessesPerSec;
    };
    std::vector<Row> rows;
    bool deterministic = true;

    for (const SchemePoint &point : schemes) {
        // Warm-up run: generates the workload trace and grows the
        // payload pools; its metrics are the determinism oracle.
        const RunMetrics warm = runPoint(point.cfg, workload);

        const auto t0 = std::chrono::steady_clock::now();
        const RunMetrics timed = runPoint(point.cfg, workload);
        const auto t1 = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(t1 - t0).count();
        const double rate =
            seconds > 0.0 ? static_cast<double>(accesses) / seconds
                          : 0.0;
        rows.push_back({point.name, seconds, rate});
        std::printf("  %-10s %8.3f s  %10.0f accesses/s\n",
                    point.name, seconds, rate);

        if (metricsFingerprint(warm) != metricsFingerprint(timed)) {
            std::fprintf(stderr,
                         "throughput: %s metrics differ between "
                         "passes — the payload path is "
                         "nondeterministic\n",
                         point.name);
            deterministic = false;
        }
    }

    if (FILE *f = std::fopen("BENCH_throughput.json", "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"throughput\",\n"
                     "  \"workload\": \"%s\",\n"
                     "  \"accesses_per_point\": %llu,\n"
                     "  \"payload_enabled\": true,\n"
                     "  \"schemes\": {\n",
                     workload,
                     static_cast<unsigned long long>(accesses));
        // rows[0] is the Tiny baseline.
        const double tinyRate = rows.front().accessesPerSec;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::fprintf(f,
                         "    \"%s\": {\"wall_seconds\": %.6f, "
                         "\"accesses_per_sec\": %.1f, "
                         "\"vs_tiny\": %.3f}%s\n",
                         rows[i].name, rows[i].seconds,
                         rows[i].accessesPerSec,
                         tinyRate > 0.0
                             ? rows[i].accessesPerSec / tinyRate
                             : 0.0,
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  }\n}\n");
        std::fclose(f);
    } else {
        std::fprintf(
            stderr,
            "throughput: cannot write BENCH_throughput.json\n");
    }

    return deterministic ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
