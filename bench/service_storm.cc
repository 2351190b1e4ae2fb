/**
 * @file
 * Service storm — the online request pipeline under open-loop load.
 *
 * Where chaos_storm drives the recovery ladder with a closed-loop
 * trace, this harness puts the service layer (src/svc) in front of
 * the controller and feeds it open-loop arrival streams: a steady
 * Poisson baseline, an on/off burst drill that transiently exceeds
 * the drain rate, a diurnal day/night swing, and a full storm that
 * combines bursty overload with payload faults and the armed
 * quarantine ladder.  Every profile runs against every duplication
 * policy.
 *
 * Per point the harness reports the arrival-to-completion latency
 * distribution (exact nearest-rank p50/p99/p999 over virtual cycles),
 * dedup fan-out, shadow early completions, backpressure cycling and
 * the structured shed counts.  Availability must be 1.0 everywhere:
 * the pipeline's contract is that every request reaches a terminal
 * outcome (completed or shed with a reason) — a watchdog trip or a
 * lost request is a harness failure, not a data point.
 *
 * Results land in BENCH_latency.json next to the binary; every point
 * runs twice and the passes must agree on an outcome fingerprint.
 * The JSON contains no wall-clock values: it is byte-identical at any
 * SB_BENCH_THREADS.  Its checksum must match the committed
 * bench/BENCH_latency.json (checkBaseline in BenchUtil.hh:
 * SB_BENCH_REGRESSION=0 disables, SB_BENCH_BASELINE points
 * elsewhere).  There is no wall-time bound: the file holds only
 * virtual-time results, so any drift is a semantic change.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "BenchUtil.hh"
#include "ckpt/Serde.hh"
#include "obs/Observer.hh"
#include "obs/RequestTrace.hh"
#include "svc/Service.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

/** Functional-scale service point: small tree, on-chip position map,
 *  hot Zipf address space feeding dedup and shadow forwarding. */
svc::ServiceConfig
serviceBase()
{
    svc::ServiceConfig cfg;
    cfg.oram.dataBlocks = std::uint64_t(1) << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.arrivals.addressBlocks = std::uint64_t(1) << 10;
    cfg.arrivals.zipfAlpha = 1.0;
    cfg.arrivals.writeFraction = 0.2;
    cfg.arrivals.seed = kBenchSeed;
    cfg.queueCapacity = 64;
    cfg.queueHighWatermark = 48;
    cfg.queueLowWatermark = 16;
    cfg.deadline = 150'000;
    cfg.maxRetries = 2;
    cfg.retryBackoffCycles = 2'000;
    return cfg;
}

/** One load profile: arrival shape + service knobs layered on the
 *  base point. */
struct Profile
{
    const char *name;
    ArrivalConfig arrivals;  ///< Shape fields; base fills the rest.
    Cycles deadline = 0;     ///< Nonzero: override the base deadline.
    bool faults = false;     ///< Storm only: payload faults + ladder.
};

std::vector<Profile>
makeProfiles()
{
    std::vector<Profile> profiles;
    {
        // Under-loaded Poisson baseline: the latency floor.
        ArrivalConfig a;
        a.kind = ArrivalKind::Poisson;
        a.meanGapCycles = 3000.0;
        profiles.push_back({"steady", a});
    }
    {
        // On/off overload: bursts arrive ~6x faster than the drain
        // rate, so the queue saturates, backpressure latches and the
        // deadline ladder sheds — then the off phase drains.
        ArrivalConfig a;
        a.kind = ArrivalKind::Bursty;
        a.meanGapCycles = 1800.0;
        a.burstFactor = 6.0;
        a.burstOnCycles = 120'000;
        a.burstOffCycles = 360'000;
        profiles.push_back({"burst", a});
    }
    {
        // Day/night swing: load crosses the service rate smoothly
        // twice per period instead of square-wave slamming it.
        ArrivalConfig a;
        a.kind = ArrivalKind::Diurnal;
        a.meanGapCycles = 1600.0;
        a.diurnalPeriodCycles = 1'200'000;
        a.diurnalTroughFactor = 0.2;
        profiles.push_back({"diurnal", a});
    }
    {
        // Full storm: bursty overload with payload corruption landing
        // while the queue is saturated, quarantine armed, and a tight
        // deadline — overload shedding and fault recovery at once.
        ArrivalConfig a;
        a.kind = ArrivalKind::Bursty;
        a.meanGapCycles = 1500.0;
        a.burstFactor = 8.0;
        a.burstOnCycles = 150'000;
        a.burstOffCycles = 250'000;
        profiles.push_back({"storm", a, 60'000, true});
    }
    return profiles;
}

struct Policy
{
    const char *name;
    Scheme scheme;
    ShadowMode mode;
};

const std::vector<Policy> &
policies()
{
    static const std::vector<Policy> kPolicies = {
        {"tiny", Scheme::Tiny, ShadowMode::RdOnly},
        {"rd", Scheme::Shadow, ShadowMode::RdOnly},
        {"hd", Scheme::Shadow, ShadowMode::HdOnly},
        {"dynamic", Scheme::Shadow, ShadowMode::DynamicPartition},
    };
    return kPolicies;
}

/** Result of one pipeline run. */
struct PointOutcome
{
    bool stalled = false;  ///< Liveness watchdog fired.
    svc::ServiceStats s;
};

/**
 * Deterministic digest of one outcome — the two passes must agree on
 * it, and the XOR over pass-0 digests is the artifact checksum the
 * regression guard pins.  Covers the latency distribution, every
 * terminal-outcome counter, the backpressure cycle count and the
 * externally visible access totals.
 */
std::uint64_t
outcomeFingerprint(const PointOutcome &o)
{
    if (o.stalled)
        return 0x57a11ULL;
    const svc::ServiceStats &s = o.s;
    std::uint64_t h =
        s.finishTime + s.completed * 31 + s.requestsShed * 37 +
        s.shedAdmission * 41 + s.shedDeadline * 43 +
        s.dedupJoins * 7 + s.shadowEarlyCompletions * 11 +
        s.retries * 13 + s.deadlineMisses * 17 +
        s.maxQueueDepth * 19 + s.backpressureEntries * 23 +
        s.issuedAccesses * 29 + s.latencyP50 * 3 +
        s.latencyP99 * 5 + s.latencyP999 * 53 + s.latencyMax * 59 +
        s.oram.pathReads * 61 + s.oram.shadowForwards * 67 +
        s.oram.faultsDetected * 71 + s.oram.faultsRecovered * 73 +
        s.oram.faultsUnrecoverable * 79;
    // Attribution and observability outputs are part of the outcome:
    // the two passes must agree on the stage cuts, the SLO verdicts
    // and the exemplar/flight artifacts byte-for-byte.
    h += s.stageBalanceViolations * 83 + s.sloWindows * 89 +
         s.sloBreaches * 97 + s.sloWorstBurnMilli * 101;
    for (std::size_t i = 0; i < obs::kStageIdCount; ++i)
        h += s.stages[i].total * (103 + 2 * i) +
             s.stages[i].count * (131 + 2 * i) +
             s.stages[i].p999 * (151 + 2 * i);
    h ^= ckpt::fnv1a(reinterpret_cast<const std::uint8_t *>(
                         s.exemplarsJsonl.data()),
                     s.exemplarsJsonl.size());
    h ^= ckpt::fnv1a(
        reinterpret_cast<const std::uint8_t *>(s.flightJson.data()),
        s.flightJson.size(), 0x9e3779b97f4a7c15ULL);
    return h;
}

/** Run one point.  Self-contained for defer(): capture by value.  A
 *  watchdog trip is recorded, not rethrown — the bench reports it as
 *  the resolution loss it is and fails the run at the end. */
PointOutcome
runPoint(svc::ServiceConfig cfg)
{
    PointOutcome out;
    try {
        out.s = svc::runService(cfg);
    } catch (const ServiceStallError &) {
        out.stalled = true;
    }
    return out;
}

} // namespace

static int
runBench()
{
    const std::vector<Profile> profiles = makeProfiles();
    // Arrival count is an experiment parameter: the burst/diurnal
    // phase lengths are sized for 3000-request runs.  SB_BENCH_MISSES
    // still overrides for scaling studies (the determinism gate holds
    // at any length).
    const std::uint64_t requests =
        // sblint:allow-next-line(ambient-nondeterminism): presence check only selects the documented default run length
        std::getenv("SB_BENCH_MISSES") ? missesPerRun() : 3000;

    std::printf("service_storm: %llu requests per point\n",
                static_cast<unsigned long long>(requests));

    // Submit every (profile, policy) twice: pass 0 is the result,
    // pass 1 the determinism oracle.  All futures enqueue up front;
    // results are read in submission order, so the output is
    // byte-identical at any SB_BENCH_THREADS.
    struct Slot
    {
        Future<PointOutcome> pass[2];
    };
    std::vector<Slot> slots;
    for (const Profile &profile : profiles) {
        for (const Policy &policy : policies()) {
            svc::ServiceConfig cfg = serviceBase();
            cfg.scheme = policy.scheme;
            cfg.shadow.mode = policy.mode;
            ArrivalConfig a = profile.arrivals;
            a.addressBlocks = cfg.arrivals.addressBlocks;
            a.zipfAlpha = cfg.arrivals.zipfAlpha;
            a.writeFraction = cfg.arrivals.writeFraction;
            a.seed = cfg.arrivals.seed;
            cfg.arrivals = a;
            cfg.requests = requests;
            if (profile.deadline)
                cfg.deadline = profile.deadline;
            // SLO: a request is good iff it completes within the
            // point's deadline; windows/thresholds keep the SloConfig
            // defaults.  Deterministic — pure function of the config.
            cfg.slo.latencyBound = cfg.deadline;
            if (profile.faults) {
                // Fail-operational: duplication heals what it can,
                // quarantine retires repeat offenders, and a loss
                // with no intact copy is counted and zero-filled —
                // the service stays up either way (the svc layer has
                // no rollback tier; Count is its terminal outcome).
                cfg.oram.payloadEnabled = true;
                cfg.oram.fault.rate = 1e-3;
                cfg.oram.fault.seed = 7;
                cfg.oram.fault.onUnrecoverable =
                    UnrecoverablePolicy::Count;
                cfg.oram.health.quarantineThreshold = 2;
            }
            Slot slot;
            for (unsigned pass = 0; pass < 2; ++pass)
                slot.pass[pass] =
                    runner().defer([cfg] { return runPoint(cfg); });
            slots.push_back(slot);
        }
    }

    Table t("Service storm — open-loop latency under load");
    t.header({"profile", "policy", "resolved", "goodput", "p50", "p99",
              "p999", "dedup", "early", "shed", "bp-in", "maxq"});

    struct Row
    {
        const char *profile;
        const char *policy;
        PointOutcome o;
    };
    std::vector<Row> rows;
    bool deterministic = true;
    std::uint64_t watchdogTrips = 0;
    std::uint64_t stormShed = 0;
    std::uint64_t checksum = 0;
    bool lost = false;
    std::size_t slotIdx = 0;
    for (const Profile &profile : profiles) {
        for (const Policy &policy : policies()) {
            const Slot &slot = slots[slotIdx++];
            const PointOutcome &o0 = slot.pass[0].get();
            const PointOutcome &o1 = slot.pass[1].get();
            if (outcomeFingerprint(o0) != outcomeFingerprint(o1)) {
                std::fprintf(stderr,
                             "service_storm: %s/%s outcomes differ "
                             "between passes — the scheduler is "
                             "nondeterministic\n",
                             profile.name, policy.name);
                deterministic = false;
            }
            checksum ^= outcomeFingerprint(o0);
            if (o0.stalled)
                ++watchdogTrips;
            if (o0.s.resolvedFraction() < 1.0)
                lost = true;
            if (std::string(profile.name) == "storm")
                stormShed += o0.s.requestsShed;
            rows.push_back({profile.name, policy.name, o0});
            t.beginRow(profile.name);
            t.cell(policy.name);
            t.cell(o0.s.resolvedFraction(), 2);
            t.cell(o0.s.goodput(), 2);
            t.cell(static_cast<std::uint64_t>(o0.s.latencyP50));
            t.cell(static_cast<std::uint64_t>(o0.s.latencyP99));
            t.cell(static_cast<std::uint64_t>(o0.s.latencyP999));
            t.cell(o0.s.dedupJoins);
            t.cell(o0.s.shadowEarlyCompletions);
            t.cell(o0.s.requestsShed);
            t.cell(o0.s.backpressureEntries);
            t.cell(o0.s.maxQueueDepth);
        }
    }
    t.print();
    std::printf(
        "\nresolved 1.00 means every arrival reached a terminal "
        "outcome — completed or shed with a reason; goodput is the "
        "completed share alone, so it drops with every shed; the "
        "storm row shedding under a tight deadline while the queue stays "
        "bounded is the overload contract working, and the "
        "duplicating policies beating tiny on p99 is the paper's "
        "forwarding argument measured as tail latency\n");

    // Tail attribution: the same completions, cut per causal stage —
    // this is the "where does p999 live" table.  Every row's stage
    // totals sum exactly to its measured latency (the balance gate
    // below fails the bench otherwise).
    Table at("Tail attribution — per-stage latency decomposition");
    at.header({"profile", "policy", "stage", "count", "p50", "p99",
               "p999", "max"});
    std::uint64_t balanceViolations = 0;
    std::uint64_t sloBreachTotal = 0;
    for (const Row &row : rows) {
        balanceViolations += row.o.s.stageBalanceViolations;
        sloBreachTotal += row.o.s.sloBreaches;
        for (std::size_t i = 0; i < obs::kStageIdCount; ++i) {
            const obs::StageCut &cut = row.o.s.stages[i];
            if (cut.count == 0)
                continue;
            at.beginRow(row.profile);
            at.cell(row.policy);
            at.cell(obs::stageName(static_cast<obs::StageId>(i)));
            at.cell(cut.count);
            at.cell(static_cast<std::uint64_t>(cut.p50));
            at.cell(static_cast<std::uint64_t>(cut.p99));
            at.cell(static_cast<std::uint64_t>(cut.p999));
            at.cell(static_cast<std::uint64_t>(cut.max));
        }
    }
    at.print();
    if (balanceViolations != 0) {
        std::fprintf(stderr,
                     "service_storm: %llu completion(s) whose stage "
                     "totals do not sum to the measured latency — the "
                     "attribution is lying\n",
                     static_cast<unsigned long long>(
                         balanceViolations));
        return 1;
    }
    std::printf("stage-balance: ok (every completion's stage totals "
                "sum to its latency)\n");
    std::printf("slo: %llu burn-rate breach(es) across all points "
                "(deadline-bound objective, default windows)\n",
                static_cast<unsigned long long>(sloBreachTotal));

    if (FILE *f = std::fopen("BENCH_latency.json", "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"service_storm\",\n"
                     "  \"requests_per_point\": %llu,\n"
                     "  \"deterministic\": %s,\n"
                     "  \"watchdog_trips\": %llu,\n"
                     "  \"checksum\": \"%llx\",\n"
                     "  \"points\": [\n",
                     static_cast<unsigned long long>(requests),
                     deterministic ? "true" : "false",
                     static_cast<unsigned long long>(watchdogTrips),
                     static_cast<unsigned long long>(checksum));
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const svc::ServiceStats &s = rows[i].o.s;
            std::fprintf(
                f,
                "    {\"profile\": \"%s\", \"policy\": \"%s\", "
                "\"resolved\": %.4f, \"goodput\": %.4f, "
                "\"completed\": %llu, \"shed\": %llu, "
                "\"shed_admission\": %llu, \"shed_deadline\": %llu, "
                "\"dedup_joins\": %llu, \"shadow_early\": %llu, "
                "\"retries\": %llu, \"deadline_misses\": %llu, "
                "\"max_queue_depth\": %llu, "
                "\"backpressure_entries\": %llu, "
                "\"backpressure_exits\": %llu, "
                "\"issued_accesses\": %llu, "
                "\"latency_p50\": %llu, \"latency_p99\": %llu, "
                "\"latency_p999\": %llu, \"latency_max\": %llu, "
                "\"latency_mean\": %.2f, "
                "\"finish_time\": %llu, ",
                rows[i].profile, rows[i].policy, s.resolvedFraction(),
                s.goodput(),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.requestsShed),
                static_cast<unsigned long long>(s.shedAdmission),
                static_cast<unsigned long long>(s.shedDeadline),
                static_cast<unsigned long long>(s.dedupJoins),
                static_cast<unsigned long long>(
                    s.shadowEarlyCompletions),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.deadlineMisses),
                static_cast<unsigned long long>(s.maxQueueDepth),
                static_cast<unsigned long long>(
                    s.backpressureEntries),
                static_cast<unsigned long long>(s.backpressureExits),
                static_cast<unsigned long long>(s.issuedAccesses),
                static_cast<unsigned long long>(s.latencyP50),
                static_cast<unsigned long long>(s.latencyP99),
                static_cast<unsigned long long>(s.latencyP999),
                static_cast<unsigned long long>(s.latencyMax),
                s.latencyMean,
                static_cast<unsigned long long>(s.finishTime));
            std::fprintf(
                f,
                "\"stage_balance_violations\": %llu, "
                "\"slo_windows\": %llu, \"slo_breaches\": %llu, "
                "\"slo_worst_burn_milli\": %llu, \"stages\": {",
                static_cast<unsigned long long>(
                    s.stageBalanceViolations),
                static_cast<unsigned long long>(s.sloWindows),
                static_cast<unsigned long long>(s.sloBreaches),
                static_cast<unsigned long long>(s.sloWorstBurnMilli));
            bool firstStage = true;
            for (std::size_t j = 0; j < obs::kStageIdCount; ++j) {
                const obs::StageCut &cut = s.stages[j];
                if (cut.count == 0)
                    continue;
                std::fprintf(
                    f,
                    "%s\"%s\": {\"count\": %llu, \"total\": %llu, "
                    "\"p50\": %llu, \"p99\": %llu, \"p999\": %llu, "
                    "\"max\": %llu}",
                    firstStage ? "" : ", ",
                    obs::stageName(static_cast<obs::StageId>(j)),
                    static_cast<unsigned long long>(cut.count),
                    static_cast<unsigned long long>(cut.total),
                    static_cast<unsigned long long>(cut.p50),
                    static_cast<unsigned long long>(cut.p99),
                    static_cast<unsigned long long>(cut.p999),
                    static_cast<unsigned long long>(cut.max));
                firstStage = false;
            }
            std::fprintf(f, "}}%s\n",
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
    } else {
        std::fprintf(stderr,
                     "service_storm: cannot write "
                     "BENCH_latency.json\n");
    }

    // Exemplar traces: a header line per point, then that point's
    // PRF-sampled exemplar rows — each links a high log2 latency bin
    // to a concrete request timeline.  Pure virtual-time content, so
    // the file is byte-identical at any SB_BENCH_THREADS.
    {
        std::string jsonl;
        for (const Row &row : rows) {
            jsonl += "{\"point\": {\"profile\": \"";
            jsonl += row.profile;
            jsonl += "\", \"policy\": \"";
            jsonl += row.policy;
            jsonl += "\"}}\n";
            jsonl += row.o.s.exemplarsJsonl;
        }
        const std::string dir = obs::dirOverride();
        const std::string path =
            (dir.empty() ? std::string(".") : dir) +
            "/exemplars-service_storm.jsonl";
        if (obs::writeTextFile(path, jsonl))
            obs::recordArtifact(path);
        else
            std::fprintf(stderr,
                         "service_storm: cannot write %s\n",
                         path.c_str());
    }

    if (watchdogTrips != 0) {
        std::fprintf(stderr,
                     "service_storm: %llu watchdog trip(s) — the "
                     "scheduler stalled\n",
                     static_cast<unsigned long long>(watchdogTrips));
        return 1;
    }
    if (lost) {
        std::fprintf(stderr,
                     "service_storm: a point lost requests "
                     "(resolved < 1.0)\n");
        return 1;
    }
    if (stormShed == 0) {
        std::fprintf(stderr,
                     "service_storm: the storm profile shed nothing — "
                     "the overload drill is not overloading\n");
        return 1;
    }
    if (!deterministic)
        return 1;
    return checkBaseline("service_storm", SB_BENCH_BASELINE_DEFAULT,
                         {{"checksum", checksum}});
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
