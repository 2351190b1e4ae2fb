/**
 * @file
 * Timing microbench for the parallel experiment runner and the
 * observability layer's overhead contract.
 *
 * Runs a fixed set of experiment points (independent of
 * SB_BENCH_MISSES / SB_BENCH_QUICK, so numbers are comparable across
 * invocations) three times: once to warm the trace cache, once with
 * observability off (the reported throughput number), and once with
 * tracing + metrics enabled.  Results land in BENCH_perf.json.
 *
 * A payload section then times the Tiny/RD-only/HD-only spread with
 * real per-slot crypto on, warm pass first.
 *
 * Three assertions gate the exit code:
 *  - every pass of a point set must produce the same checksum as its
 *    warm-up, and the observed sweep the same as the unobserved one
 *    (observability never changes results);
 *  - the observed sweep must finish within 2x the unobserved wall
 *    time (a generous CI bound; typical overhead is a few percent);
 *  - `checksum` and `payload_checksum` must match the committed
 *    bench/BENCH_perf.json (checkBaseline in BenchUtil.hh).
 * Wall time and points/s are recorded, never compared with the
 * baseline: host speed is judged by perfbench's paired runs.
 *
 * On a multi-core machine the expected scaling is near-linear until
 * the point count (24) stops covering the pool.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "BenchUtil.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

std::uint64_t
checksumOf(const std::vector<RunMetrics> &results)
{
    // Checksum so a broken parallel path cannot silently pass.
    std::uint64_t checksum = 0;
    for (const RunMetrics &m : results)
        checksum ^= m.execTime + m.requests * 31 + m.oram.pathReads * 7;
    return checksum;
}

double
timedRun(ExperimentRunner &run,
         const std::vector<ExperimentPoint> &points,
         std::uint64_t &checksum)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<RunMetrics> results = run.runAll(points);
    const auto t1 = std::chrono::steady_clock::now();
    checksum = checksumOf(results);
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

static int
runBench()
{
    // Fixed workload: every scheme the figures use, over three
    // workloads with distinct memory intensity, 2500 misses each.
    const std::uint64_t misses = 2500;
    SystemConfig base = paperSystem();
    base.oram.dataBlocks = std::uint64_t(1) << 16;
    base.timingProtection = true;

    std::vector<ExperimentPoint> points;
    for (const char *wl : {"mcf", "sjeng", "namd"}) {
        for (Scheme scheme :
             {Scheme::Insecure, Scheme::Tiny, Scheme::Shadow}) {
            points.push_back({withScheme(base, scheme), wl, misses,
                              kBenchSeed});
        }
        points.push_back({withScheme(base, Scheme::Shadow,
                                     ShadowMode::RdOnly),
                          wl, misses, kBenchSeed});
        points.push_back({withScheme(base, Scheme::Shadow,
                                     ShadowMode::HdOnly),
                          wl, misses, kBenchSeed});
        points.push_back({withScheme(base, Scheme::Shadow,
                                     ShadowMode::StaticPartition, 4),
                          wl, misses, kBenchSeed});
        points.push_back({withScheme(base, Scheme::Shadow,
                                     ShadowMode::StaticPartition, 7),
                          wl, misses, kBenchSeed});
        points.push_back({withScheme(base, Scheme::Shadow,
                                     ShadowMode::DynamicPartition, 4,
                                     5),
                          wl, misses, kBenchSeed});
    }

    ExperimentRunner &run = runner();

    // Warm-up pass: generates and caches the traces so neither timed
    // pass pays the one-time generation cost.
    std::uint64_t warmChecksum = 0;
    timedRun(run, points, warmChecksum);

    std::uint64_t checksum = 0;
    const double seconds = timedRun(run, points, checksum);
    const double rate =
        static_cast<double>(points.size()) / seconds;

    // Observed pass: identical points with tracing + metrics on.
    const std::string obsDir = "obs_perf_smoke";
    std::filesystem::create_directories(obsDir);
    std::vector<ExperimentPoint> observed = points;
    for (ExperimentPoint &p : observed) {
        p.cfg.obs.trace = true;
        p.cfg.obs.metrics = true;
        p.cfg.obs.interval = 250;
        p.cfg.obs.dir = obsDir;
    }
    std::uint64_t obsChecksum = 0;
    const double obsSeconds = timedRun(run, observed, obsChecksum);
    const double overheadPct =
        seconds > 0.0 ? (obsSeconds / seconds - 1.0) * 100.0 : 0.0;

    // Payload section: the same scheme spread with real per-slot
    // crypto on (slab store + batched keystream), on a tree small
    // enough to materialize ciphertext stripes.  Timed separately so
    // the classic number stays comparable across history.
    SystemConfig payloadBase = base;
    payloadBase.oram.dataBlocks = std::uint64_t(1) << 16;
    payloadBase.oram.payloadEnabled = true;
    std::vector<ExperimentPoint> payloadPoints;
    for (const char *wl : {"mcf", "sjeng", "namd"}) {
        payloadPoints.push_back(
            {withScheme(payloadBase, Scheme::Tiny), wl, misses,
             kBenchSeed});
        payloadPoints.push_back(
            {withScheme(payloadBase, Scheme::Shadow,
                        ShadowMode::RdOnly),
             wl, misses, kBenchSeed});
        payloadPoints.push_back(
            {withScheme(payloadBase, Scheme::Shadow,
                        ShadowMode::HdOnly),
             wl, misses, kBenchSeed});
    }
    std::uint64_t payloadWarm = 0;
    timedRun(run, payloadPoints, payloadWarm);
    std::uint64_t payloadChecksum = 0;
    const double payloadSeconds =
        timedRun(run, payloadPoints, payloadChecksum);
    const double payloadRate =
        static_cast<double>(payloadPoints.size()) / payloadSeconds;

    std::printf("perf_smoke: %zu points, %u threads\n",
                points.size(), run.threads());
    std::printf("wall %.3f s, %.2f points/s, checksum %llx\n",
                seconds, rate,
                static_cast<unsigned long long>(checksum));
    std::printf("observed wall %.3f s (%+.1f%% vs unobserved)\n",
                obsSeconds, overheadPct);
    std::printf("payload wall %.3f s, %.2f points/s, checksum %llx "
                "(%zu points)\n",
                payloadSeconds, payloadRate,
                static_cast<unsigned long long>(payloadChecksum),
                payloadPoints.size());

    if (FILE *f = std::fopen("BENCH_perf.json", "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"perf_smoke\",\n"
                     "  \"points\": %zu,\n"
                     "  \"threads\": %u,\n"
                     "  \"wall_seconds\": %.6f,\n"
                     "  \"points_per_sec\": %.3f,\n"
                     "  \"observed_wall_seconds\": %.6f,\n"
                     "  \"obs_overhead_pct\": %.2f,\n"
                     "  \"checksum\": \"%llx\",\n"
                     "  \"payload_points\": %zu,\n"
                     "  \"payload_wall_seconds\": %.6f,\n"
                     "  \"payload_points_per_sec\": %.3f,\n"
                     "  \"payload_checksum\": \"%llx\"\n"
                     "}\n",
                     points.size(), run.threads(), seconds, rate,
                     obsSeconds, overheadPct,
                     static_cast<unsigned long long>(checksum),
                     payloadPoints.size(), payloadSeconds,
                     payloadRate,
                     static_cast<unsigned long long>(payloadChecksum));
        std::fclose(f);
    } else {
        std::fprintf(stderr,
                     "perf_smoke: cannot write BENCH_perf.json\n");
    }

    if (payloadChecksum != payloadWarm) {
        std::fprintf(stderr,
                     "perf_smoke: payload checksum drift (warm %llx, "
                     "timed %llx) — the payload path changed results "
                     "between identical passes\n",
                     static_cast<unsigned long long>(payloadWarm),
                     static_cast<unsigned long long>(payloadChecksum));
        return 1;
    }
    if (checksum != warmChecksum || obsChecksum != checksum) {
        std::fprintf(stderr,
                     "perf_smoke: checksum drift (warm %llx, plain "
                     "%llx, observed %llx) — observability or the "
                     "parallel path changed results\n",
                     static_cast<unsigned long long>(warmChecksum),
                     static_cast<unsigned long long>(checksum),
                     static_cast<unsigned long long>(obsChecksum));
        return 1;
    }
    // Generous 2x CI bound with half a second of slack for tiny
    // absolute timings on loaded machines.
    if (obsSeconds > 2.0 * seconds + 0.5) {
        std::fprintf(stderr,
                     "perf_smoke: observability overhead too high "
                     "(%.3f s observed vs %.3f s plain)\n",
                     obsSeconds, seconds);
        return 1;
    }
    return checkBaseline("perf_smoke", SB_BENCH_BASELINE_DEFAULT,
                         {{"checksum", checksum},
                          {"payload_checksum", payloadChecksum}});
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
