/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches.
 *
 * Every paper figure gets one binary that prints the same rows or
 * series the paper plots.  Environment knobs:
 *   SB_BENCH_MISSES  — misses simulated per run (default 8000, or
 *                      4000 in quick mode)
 *   SB_BENCH_QUICK   — set to 1 to cut workloads/misses for smoke
 *                      runs (CI)
 *   SB_BENCH_THREADS — worker threads for the experiment runner
 *                      (default: hardware concurrency; 1 forces the
 *                      sequential path)
 * and, for the benches with a committed baseline (checkBaseline):
 *   SB_BENCH_BASELINE    — baseline JSON path (default: the in-tree
 *                          bench/BENCH_*.json)
 *   SB_BENCH_REGRESSION  — set to 0 to disable the checksum guard
 */

#ifndef SBORAM_BENCH_BENCHUTIL_HH
#define SBORAM_BENCH_BENCHUTIL_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "common/Logging.hh"
#include "common/Stats.hh"
#include "common/Table.hh"
#include "common/Version.hh"
#include "obs/FlightRecorder.hh"
#include "obs/Observer.hh"
#include "sim/ExperimentRunner.hh"
#include "sim/System.hh"
#include "workload/SpecProfiles.hh"

namespace sboram::bench {

inline bool
quickMode()
{
    const char *q = std::getenv("SB_BENCH_QUICK");
    return q && q[0] == '1';
}

inline std::uint64_t
missesPerRun()
{
    static const std::uint64_t misses = []() -> std::uint64_t {
        const std::uint64_t fallback = quickMode() ? 4000 : 8000;
        const char *m = std::getenv("SB_BENCH_MISSES");
        if (!m)
            return fallback;
        errno = 0;
        char *end = nullptr;
        const unsigned long long v = std::strtoull(m, &end, 10);
        if (end == m || *end != '\0' || errno == ERANGE || v == 0) {
            SB_WARN("ignoring invalid SB_BENCH_MISSES='%s' (want a "
                    "positive integer); using %llu",
                    m, static_cast<unsigned long long>(fallback));
            return fallback;
        }
        return v;
    }();
    return misses;
}

/** Workload list for per-benchmark figures. */
inline std::vector<std::string>
benchWorkloads()
{
    if (quickMode())
        return {"mcf", "sjeng", "namd"};
    return specNames();
}

/** The default experimental platform (scaled Table I, DESIGN.md). */
inline SystemConfig
paperSystem()
{
    SystemConfig cfg;
    cfg.oram.dataBlocks = std::uint64_t(1) << 20;  // 64 MB data ORAM
    cfg.oram.slotsPerBucket = 5;
    cfg.oram.evictionRate = 5;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.plbBytes = 64 * 1024;
    cfg.oram.stashCapacity = 200;
    return cfg;
}

/** Workload seed shared across all benches. */
inline constexpr std::uint64_t kBenchSeed = 12345;

/** Named scheme points used across figures. */
inline SystemConfig
withScheme(SystemConfig base, Scheme scheme,
           ShadowMode mode = ShadowMode::DynamicPartition,
           unsigned staticLevel = 7, unsigned driBits = 3)
{
    base.scheme = scheme;
    base.shadow.mode = mode;
    base.shadow.staticLevel = staticLevel;
    base.shadow.driCounterBits = driBits;
    return base;
}

/** The process-wide experiment runner all benches share. */
inline ExperimentRunner &
runner()
{
    return ExperimentRunner::global();
}

/**
 * Enqueue one (config, workload) point with the shared trace seed.
 * Benches submit every point of a figure first, then get() the
 * futures in print order, so output is byte-identical to a
 * sequential run regardless of SB_BENCH_THREADS.
 */
inline Future<RunMetrics>
submitPoint(const SystemConfig &cfg, const std::string &workload)
{
    return runner().submit(cfg, workload, missesPerRun(), kBenchSeed);
}

/**
 * get() with a health check: a run that overflowed the stash produced
 * numbers from a broken protocol state, so the bench output must say
 * so instead of silently printing them (the row is still printed —
 * the warning names the point so it can be rerun at a larger M).
 */
inline const RunMetrics &
getChecked(const Future<RunMetrics> &future, const std::string &label)
{
    const RunMetrics &m = future.get();
    if (m.stash.overflowEvents > 0) {
        SB_WARN("%s: stash overflowed %llu times (peak %llu reals) — "
                "results suspect; rerun with a larger stashCapacity",
                label.c_str(),
                static_cast<unsigned long long>(m.stash.overflowEvents),
                static_cast<unsigned long long>(m.stash.peakReal));
    }
    return m;
}

/**
 * Paper-style normalized Data/Interval decomposition of a run,
 * normalized to a baseline's total execution time (Figs. 8/9/10/13/14).
 */
struct NormalizedTime
{
    double data = 0.0;
    double interval = 0.0;
    double total = 0.0;
};

inline NormalizedTime
normalize(const RunMetrics &m, const RunMetrics &base)
{
    NormalizedTime n;
    const double ref = static_cast<double>(base.execTime);
    n.data = m.dataAccessTime / ref;
    n.interval = m.driTime / ref;
    n.total = static_cast<double>(m.execTime) / ref;
    return n;
}

/**
 * Checksum guard against a committed baseline JSON: each named field
 * of the baseline must hold, as a quoted hex string, the value this
 * run produced.  A missing baseline file only warns (fresh machines,
 * renamed checkouts).  A baseline that exists but lacks a field, or
 * holds a non-hex value there, fails: a guard that cannot compare
 * must not pass.  Wall time is never compared; host speed is judged
 * by perfbench's paired runs.  Returns the bench's exit code.
 */
inline int
checkBaseline(
    const char *bench, const std::string &defaultPath,
    std::initializer_list<std::pair<const char *, std::uint64_t>> fields)
{
    const char *onOff = std::getenv("SB_BENCH_REGRESSION");
    if (onOff && onOff[0] == '0') {
        std::printf("regression guard disabled (SB_BENCH_REGRESSION=0)\n");
        return 0;
    }
    const char *env = std::getenv("SB_BENCH_BASELINE");
    const std::string path = env ? env : defaultPath;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "%s: no baseline at %s — regression guard "
                     "skipped\n",
                     bench, path.c_str());
        return 0;
    }
    const std::string doc{std::istreambuf_iterator<char>(in), {}};

    int rc = 0;
    for (const auto &[key, value] : fields) {
        // `"key": "<hex>"`, as the bench writers emit it.
        const std::string needle = "\"" + std::string(key) + "\": \"";
        const std::size_t at = doc.find(needle);
        const std::size_t begin = at + needle.size();
        const std::size_t end =
            at == std::string::npos ? at : doc.find('"', begin);
        const std::string hex =
            end == std::string::npos ? "" : doc.substr(begin, end - begin);
        if (hex.empty() || hex.size() > 16 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos) {
            std::fprintf(stderr,
                         "%s: baseline %s has no hex \"%s\" — cannot "
                         "compare\n",
                         bench, path.c_str(), key);
            rc = 1;
            continue;
        }
        const std::uint64_t base = std::strtoull(hex.c_str(), nullptr, 16);
        if (base != value) {
            std::fprintf(stderr,
                         "%s: %s %llx differs from baseline %llx — "
                         "results changed\n",
                         bench, key, static_cast<unsigned long long>(value),
                         static_cast<unsigned long long>(base));
            rc = 1;
        }
    }
    if (rc == 0)
        std::printf("regression guard: checksums match %s\n",
                    path.c_str());
    return rc;
}

/**
 * Print the one-line machine-readable failure record for a dead
 * bench.  The thread-local panicDiag() is preferred when the failing
 * thread registered one, but futures rethrow on the *caller's*
 * thread, whose slot is usually empty — so every classified error
 * supplies a @p fallback synthesized from its structured fields.
 * The line is always emitted on a fatal exit (not only under
 * SB_PANIC) so harnesses can classify any dead process.
 *
 * Every line unconditionally carries the service-forensics fields
 * (pressure latch, degraded latch, last watchdog tick) — cheap,
 * always current, and exactly the context a post-mortem wants first.
 * When the failing run handed its flight ring to the panic slot, a
 * second `panic-flight:` line dumps the last control events in full.
 */
inline void
emitPanicDiag(const std::string &fallback)
{
    const std::string &diag = panicDiag();
    std::fprintf(stderr, "panic-diag: %s%s\n",
                 diag.empty() ? fallback.c_str() : diag.c_str(),
                 obs::forensicsSuffix().c_str());
    const std::string flight = obs::panicFlight();
    if (!flight.empty())
        std::fprintf(stderr, "panic-flight: %s\n", flight.c_str());
}

/**
 * Standard bench entry point.  Validates SB_CKPT_DIR up front (an
 * unusable directory is a one-line diagnostic and a nonzero exit, not
 * a hang into ENOSPC mid-sweep), installs SIGINT/SIGTERM checkpoint
 * handlers when checkpointing is active, and classifies the expected
 * exception families onto conventional exit codes:
 *   130 — interrupted (final snapshot already on disk; resume it),
 *   kFatalExitCode (2) — corruption, invariant violation, a stalled
 *       service scheduler, or any other simulator error.
 * Every fatal path emits one machine-readable `panic-diag:` line.
 */
inline int
guardedMain(int (*body)())
{
    try {
        if (ckpt::activeDirectory() != nullptr)
            ckpt::installStopHandlers();
        return body();
    } catch (const InterruptedError &e) {
        std::fprintf(stderr,
                     "interrupted: %s; rerun with the same SB_CKPT_DIR "
                     "to resume\n",
                     e.what());
        return 130;
    } catch (const CorruptionError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        emitPanicDiag(strprintf(
            "event=corruption access=%llu bucket=%llu level=%u "
            "recovered=0",
            static_cast<unsigned long long>(e.accessCount()),
            static_cast<unsigned long long>(e.bucket()), e.level()));
        return kFatalExitCode;
    } catch (const InvariantViolationError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        emitPanicDiag(strprintf(
            "event=invariant_violation access=%llu",
            static_cast<unsigned long long>(e.accessCount())));
        return kFatalExitCode;
    } catch (const ServiceStallError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        emitPanicDiag(strprintf(
            "event=service_stall queue_depth=%llu in_flight=%llu "
            "shed=%llu deadline_misses=%llu served=%llu",
            static_cast<unsigned long long>(e.queueDepth()),
            static_cast<unsigned long long>(e.inFlight()),
            static_cast<unsigned long long>(e.requestsShed()),
            static_cast<unsigned long long>(e.deadlineMisses()),
            static_cast<unsigned long long>(e.served())));
        return kFatalExitCode;
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        emitPanicDiag("event=sim_error");
        return kFatalExitCode;
    }
}

/** JSON string escaping for the manifest writer. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Basename of argv[0] without directories ("fig10_dri_counter_width"). */
inline std::string
benchName(const char *argv0)
{
    std::string name = argv0 ? argv0 : "bench";
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return name.empty() ? "bench" : name;
}

/**
 * Write manifest-<bench>.json: the machine-readable record of a bench
 * invocation — tree revision, experiment knobs, wall time, and every
 * observability artifact the run produced.  One manifest per binary
 * (not a shared manifest.json) so concurrent ctest invocations never
 * clobber each other.
 */
inline void
writeManifest(const std::string &dir, const std::string &bench,
              int argc, char **argv, int exitCode,
              std::uint64_t wallUs)
{
    std::string j = "{\n";
    j += "  \"bench\": \"" + jsonEscape(bench) + "\",\n";
    j += "  \"argv\": [";
    for (int i = 0; i < argc; ++i) {
        if (i)
            j += ", ";
        j += "\"" + jsonEscape(argv[i]) + "\"";
    }
    j += "],\n";
    j += "  \"git_describe\": \"" + jsonEscape(kGitDescribe) + "\",\n";
    j += "  \"exit_code\": " + std::to_string(exitCode) + ",\n";
    j += "  \"wall_seconds\": " +
         std::to_string(static_cast<double>(wallUs) / 1e6) + ",\n";
    j += "  \"config\": {\n";
    j += "    \"misses\": " + std::to_string(missesPerRun()) + ",\n";
    j += "    \"seed\": " + std::to_string(kBenchSeed) + ",\n";
    j += "    \"quick\": " +
         std::string(quickMode() ? "true" : "false") + ",\n";
    j += "    \"threads\": " +
         std::to_string(ExperimentRunner::defaultThreads()) + ",\n";
    const std::string *ckptDir = ckpt::activeDirectory();
    j += "    \"ckpt_dir\": " +
         (ckptDir ? "\"" + jsonEscape(*ckptDir) + "\""
                  : std::string("null")) + ",\n";
    j += "    \"schemes\": \"per point; see artifact labels\"\n";
    j += "  },\n";
    j += "  \"artifacts\": [";
    bool first = true;
    for (const std::string &path : obs::artifactLog()) {
        j += first ? "\n    \"" : ",\n    \"";
        j += jsonEscape(path) + "\"";
        first = false;
    }
    j += first ? "]\n" : "\n  ]\n";
    j += "}\n";

    const std::string path = dir + "/manifest-" + bench + ".json";
    if (!obs::writeTextFile(path, j))
        SB_WARN("cannot write %s", path.c_str());
}

/**
 * Argument-aware bench entry point: guardedMain plus
 *   --obs-dir <dir>   redirect SB_OBS_* artifacts and the manifest
 * Writes manifest-<bench>.json and (when any run was observed) the
 * wall-clock runner-lane trace after the body finishes.
 */
inline int
guardedMain(int argc, char **argv, int (*body)())
{
    std::string obsDir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--obs-dir" && i + 1 < argc) {
            obsDir = argv[++i];
        } else if (arg.rfind("--obs-dir=", 0) == 0) {
            obsDir = arg.substr(10);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--obs-dir DIR]\n"
                         "unknown argument: %s\n",
                         argv[0], arg.c_str());
            return 2;
        }
    }
    if (!obsDir.empty())
        obs::setDirOverride(obsDir);

    const std::uint64_t t0 = obs::wallMicros();
    const int code = guardedMain(body);
    const std::string dir = obsDir.empty() ? "." : obsDir;
    obs::writeRunnerTrace(dir + "/trace-runner.json");
    // Flight-recorder artifact: every published ring dump, plus the
    // panic dump when the run died (a clean exit keeps its artifact
    // free of the "panic" key so harnesses can grep for it).
    const std::string flightArtifact =
        obs::renderFlightArtifact(code != 0);
    if (!flightArtifact.empty()) {
        const std::string flightPath =
            dir + "/flightrec-" + benchName(argv[0]) + ".json";
        if (obs::writeTextFile(flightPath, flightArtifact))
            obs::recordArtifact(flightPath);
        else
            SB_WARN("cannot write %s", flightPath.c_str());
    }
    writeManifest(dir, benchName(argv[0]), argc, argv, code,
                  obs::wallMicros() - t0);
    return code;
}

} // namespace sboram::bench

#endif // SBORAM_BENCH_BENCHUTIL_HH
