/**
 * @file
 * Chaos storm — the recovery escalation ladder under escalating,
 * deterministic fault storms.
 *
 * Where fault_sweep measures detection/heal rates at memoryless fault
 * rates, this harness drives the *whole* ladder end to end: rate
 * ramps, correlated bursts, subtree-targeted storms and stuck-cell
 * campaigns run against every duplication policy with slot
 * quarantine (tier 1), stash backpressure (tier 2) and checkpoint
 * auto-rollback (tier 3) armed.  Every point runs under
 * UnrecoverablePolicy::Throw, so a payload is either healed or the
 * run rolls back and replays — a wrong payload can never leak into
 * the output.
 *
 * Per point the harness reports availability (did the run complete
 * within its rollback budget), recoveries per tier, time spent in
 * degraded mode, and replay MTTR (replayed accesses per rollback).
 * Results land in BENCH_resilience.json next to the binary; every
 * point runs twice and the two passes must agree on the whole run
 * record, so the recovery ladder cannot hide nondeterminism
 * behind a resilience report.  The JSON contains no wall-clock
 * values: it is byte-identical at any SB_BENCH_THREADS.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "BenchUtil.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

/** Rollback budget per run; part of the point fingerprint. */
constexpr unsigned kMaxRollbacks = 12;
/** Snapshot cadence: bounds the replay distance per rollback. */
constexpr unsigned kCkptInterval = 250;

/** Functional-scale payload-mode system with the ladder armed. */
SystemConfig
chaosSystem()
{
    SystemConfig cfg;
    cfg.oram.dataBlocks = std::uint64_t(1) << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.payloadEnabled = true;
    cfg.oram.stashCapacity = 200;
    cfg.oram.health.quarantineThreshold = 2;
    // Backstop watermarks: above the post-access real-stash swing at
    // this scale, so tier 2 stays out of the fault profiles' way (its
    // duplication suppression would starve tier 0 of shadows during
    // the storms).  The congest profile overrides them downward to
    // exercise the latch.
    cfg.oram.health.stashHighWatermark = 10;
    cfg.oram.health.stashLowWatermark = 4;
    cfg.maxAutoRollbacks = kMaxRollbacks;
    cfg.checkpointInterval = kCkptInterval;
    cfg.timingProtection = false;
    return cfg;
}

/** One storm profile: a sequence of fault phases, run independently
 *  and aggregated per point. */
struct Profile
{
    const char *name;
    std::vector<FaultConfig> phases;
    /** Nonzero: override the tier-2 watermarks for this profile.  The
     *  latch samples *post-access* real-stash occupancy (not the
     *  transient mid-path peak), so watermarks must sit inside that
     *  swing — 4/3 at this scale — to cycle degraded mode. */
    unsigned highWatermark = 0;
    unsigned lowWatermark = 0;
};

std::vector<Profile>
makeProfiles()
{
    FaultConfig base;
    base.seed = 7;
    base.onUnrecoverable = UnrecoverablePolicy::Throw;

    std::vector<Profile> profiles;

    {
        // Escalating background corruption: three rate steps.
        Profile p{"ramp", {}};
        for (double rate : {2e-4, 5e-4, 1e-3}) {
            FaultConfig f = base;
            f.rate = rate;
            p.phases.push_back(f);
        }
        profiles.push_back(p);
    }
    {
        // Correlated burst: high rate confined to the first 8
        // accesses of every 64-access window (controller brown-out).
        FaultConfig f = base;
        f.rate = 0.02;
        f.burstEvery = 128;
        f.burstLen = 8;
        profiles.push_back({"burst", {f}});
    }
    {
        // Spatially correlated storm: one quarter of the tree (top-2
        // leaf bits == 01) takes every fault.
        FaultConfig f = base;
        f.rate = 4e-3;
        f.subtreeLevels = 2;
        f.subtreePrefix = 1;
        profiles.push_back({"subtree", {f}});
    }
    {
        // Stuck-cell campaign: long-lived stuck bits only — the
        // repeat offenders the tier-1 quarantine table exists for.
        FaultConfig f = base;
        f.rate = 1e-3;
        f.bitFlips = false;
        f.droppedWrites = false;
        f.stuckWrites = 8;
        profiles.push_back({"stuck", {f}});
    }
    {
        // Congestion drill: the ramp's top corruption rate with the
        // tier-2 watermarks pulled inside the occupancy swing, so the
        // degraded-mode latch cycles (emergency sweeps + duplication
        // suppression) while faults are landing.  Availability must
        // still be 1.0: degradation costs cycles, never correctness.
        FaultConfig f = base;
        f.rate = 1e-3;
        profiles.push_back({"congest", {f}, 4, 3});
    }
    {
        // Full storm: every fault kind at the highest sustained rate
        // the rollback budget is sized for.
        FaultConfig f = base;
        f.rate = 6e-3;
        profiles.push_back({"storm", {f}});
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

/** Result of one phase run (one runSystem call with the ladder). */
struct PhaseOutcome
{
    bool completed = false;
    RunMetrics m;
    /** Access count of the final CorruptionError when !completed. */
    std::uint64_t failedAt = 0;
};

/**
 * Whether two passes of a phase agree: a completed phase's whole
 * record (its saveRunMetrics bytes), or a failed phase's failing
 * access.
 */
bool
sameOutcome(const PhaseOutcome &a, const PhaseOutcome &b)
{
    if (a.completed != b.completed)
        return false;
    if (!a.completed)
        return a.failedAt == b.failedAt;
    ckpt::Serializer wa, wb;
    saveRunMetrics(wa, a.m);
    saveRunMetrics(wb, b.m);
    return wa.buffer() == wb.buffer();
}

/**
 * Run one phase with a private checkpoint session (tier 3 needs
 * somewhere to roll back to).  Self-contained: runs on a worker via
 * defer(), every capture by value.  A CorruptionError here means the
 * rollback budget is spent — that is the availability loss this
 * bench measures, not a harness failure.
 */
PhaseOutcome
runPhase(SystemConfig cfg, std::string workload, std::uint64_t misses,
         std::string ckptDir, std::uint64_t key)
{
    const SharedTrace trace = cachedTrace(workload, misses, kBenchSeed);
    ckpt::CheckpointSession session(ckptDir, key);
    session.removeSnapshots();  // Stale state from a killed prior run.
    PhaseOutcome out;
    try {
        out.m = runSystem(cfg, *trace, &session);
        out.completed = true;
        session.removeSnapshots();
        return out;
    } catch (const CorruptionError &e) {
        out.failedAt = e.accessCount();
        session.removeSnapshots();
        return out;
    }
}

/** Aggregate of one (profile, policy) point across its phases. */
struct PointResult
{
    unsigned phasesTotal = 0;
    unsigned phasesCompleted = 0;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t tier0Healed = 0;
    std::uint64_t tier1Quarantined = 0;
    std::uint64_t tier1Evacuations = 0;
    std::uint64_t tier2Entries = 0;
    std::uint64_t tier2Ticks = 0;
    std::uint64_t tier2Evictions = 0;
    std::uint64_t tier3Rollbacks = 0;
    std::uint64_t replayedAccesses = 0;
    std::uint64_t peakStash = 0;

    double
    availability() const
    {
        return phasesTotal == 0
                   ? 0.0
                   : static_cast<double>(phasesCompleted) /
                         static_cast<double>(phasesTotal);
    }

    /** Mean replay distance per rollback (accesses). */
    double
    mttr() const
    {
        return tier3Rollbacks == 0
                   ? 0.0
                   : static_cast<double>(replayedAccesses) /
                         static_cast<double>(tier3Rollbacks);
    }

    void
    add(const PhaseOutcome &o)
    {
        ++phasesTotal;
        if (!o.completed)
            return;
        ++phasesCompleted;
        const OramStats &s = o.m.oram;
        injected += s.faultsInjected;
        detected += s.faultsDetected;
        tier0Healed += s.faultsRecovered;
        tier1Quarantined += s.slotsQuarantined;
        tier1Evacuations += s.quarantineEvacuations;
        tier2Entries += s.degradedEntries;
        tier2Ticks += s.degradedTicks;
        tier2Evictions += s.emergencyEvictions;
        tier3Rollbacks += o.m.rollbacks;
        replayedAccesses += o.m.replayedAccesses;
        peakStash = std::max<std::uint64_t>(peakStash,
                                            o.m.stash.peakReal);
    }
};

} // namespace

static int
runBench()
{
    // Forced-panic drill: one unprotected point — heavy fault storm,
    // Throw policy, no rollback budget, no session — so the
    // CorruptionError escapes runSystem and unwinds all the way to
    // guardedMain.  This exercises the real panic path end to end:
    // exit code 2, panic-diag + panic-flight on stderr, and a
    // flightrec artifact carrying the "panic" dump.  The drill's
    // simulated outcome is itself deterministic (PRF faults, fixed
    // trace); the switch only selects which experiment runs.
    // sblint:allow-next-line(ambient-nondeterminism): panic-drill on/off switch, not an experiment knob
    if (const char *drill = std::getenv("SB_CHAOS_FORCE_PANIC")) {
        if (drill[0] == '1') {
            SystemConfig cfg = chaosSystem();
            cfg.scheme = Scheme::Tiny;
            cfg.oram.fault.rate = 0.05;
            cfg.oram.fault.seed = 7;
            cfg.oram.fault.onUnrecoverable =
                UnrecoverablePolicy::Throw;
            cfg.maxAutoRollbacks = 0;
            const SharedTrace trace = cachedTrace("mcf", 600,
                                                  kBenchSeed);
            runSystem(cfg, *trace);
            std::fprintf(stderr,
                         "chaos_storm: forced-panic drill survived — "
                         "the storm did not corrupt anything\n");
            return 1;
        }
    }

    const std::vector<Profile> profiles = makeProfiles();
    const std::string workload = "mcf";
    // Phase length is an experiment parameter, not a throughput knob:
    // the storm rates and the rollback budget are sized for
    // 1500-access phases.  SB_BENCH_MISSES still overrides for
    // scaling studies (the determinism gate holds at any length).
    const std::uint64_t misses =
        // sblint:allow-next-line(ambient-nondeterminism): presence check only selects the documented default phase length
        std::getenv("SB_BENCH_MISSES") ? missesPerRun() : 1500;

    // Tier 3 rolls back to on-disk snapshots; give every point a
    // private key in one scratch directory under the working dir.
    const std::string ckptDir = "chaos-ckpt";
    if (::mkdir(ckptDir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "chaos_storm: cannot create '%s'\n",
                     ckptDir.c_str());
        return 1;
    }

    std::printf("chaos_storm: %llu accesses per phase, workload %s, "
                "rollback budget %u\n",
                static_cast<unsigned long long>(misses),
                workload.c_str(), kMaxRollbacks);

    // Submit every (profile, policy, phase) twice: pass 0 is the
    // result, pass 1 the determinism oracle.  All futures enqueue up
    // front; results are read in submission order, so the output is
    // byte-identical at any SB_BENCH_THREADS.
    struct Slot
    {
        Future<PhaseOutcome> pass[2];
    };
    std::vector<Slot> slots;
    std::uint64_t pointIndex = 0;
    for (const Profile &profile : profiles) {
        for (const Policy &policy : policies()) {
            for (const FaultConfig &fault : profile.phases) {
                SystemConfig cfg = withScheme(
                    chaosSystem(), policy.scheme, policy.mode);
                cfg.oram.fault = fault;
                if (profile.highWatermark) {
                    cfg.oram.health.stashHighWatermark =
                        profile.highWatermark;
                    cfg.oram.health.stashLowWatermark =
                        profile.lowWatermark;
                }
                Slot slot;
                for (unsigned pass = 0; pass < 2; ++pass) {
                    const std::uint64_t key =
                        configFingerprint(cfg) ^
                        (0x517cc1b727220a95ULL *
                         (pointIndex * 2 + pass + 1));
                    slot.pass[pass] = runner().defer(
                        [cfg, workload, misses, ckptDir, key] {
                            return runPhase(cfg, workload, misses,
                                            ckptDir, key);
                        });
                }
                slots.push_back(slot);
                ++pointIndex;
            }
        }
    }

    Table t("Chaos storm — recovery ladder under escalating faults");
    t.header({"profile", "policy", "avail", "detected", "t0-heal",
              "t1-quar", "t2-entries", "t3-rollback", "mttr",
              "peak-stash"});

    struct Row
    {
        const char *profile;
        const char *policy;
        PointResult r;
    };
    std::vector<Row> rows;
    bool deterministic = true;
    std::size_t slotIdx = 0;
    for (const Profile &profile : profiles) {
        for (const Policy &policy : policies()) {
            PointResult r;
            for (std::size_t ph = 0; ph < profile.phases.size();
                 ++ph) {
                const Slot &slot = slots[slotIdx++];
                const PhaseOutcome &o0 = slot.pass[0].get();
                const PhaseOutcome &o1 = slot.pass[1].get();
                if (!sameOutcome(o0, o1)) {
                    std::fprintf(stderr,
                                 "chaos_storm: %s/%s phase %zu "
                                 "outcomes differ between passes — "
                                 "the recovery ladder is "
                                 "nondeterministic\n",
                                 profile.name, policy.name, ph);
                    deterministic = false;
                }
                r.add(o0);
            }
            rows.push_back({profile.name, policy.name, r});
            t.beginRow(profile.name);
            t.cell(policy.name);
            t.cell(r.availability(), 2);
            t.cell(r.detected);
            t.cell(r.tier0Healed);
            t.cell(r.tier1Quarantined);
            t.cell(r.tier2Entries);
            t.cell(r.tier3Rollbacks);
            t.cell(r.mttr(), 1);
            t.cell(r.peakStash);
        }
    }
    t.print();
    std::printf("\navailability 1.00 means every phase finished "
                "inside its rollback budget; a wrong payload is "
                "impossible under Throw — it either heals or rolls "
                "back.  congest cycles the tier-2 latch hundreds of "
                "times without losing a phase (degradation costs "
                "cycles, never correctness); the no-duplication "
                "baseline losing the full storm while rd/hd/dynamic "
                "ride it out is the paper's redundancy argument "
                "measured as availability\n");

    if (FILE *f = std::fopen("BENCH_resilience.json", "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"chaos_storm\",\n"
                     "  \"workload\": \"%s\",\n"
                     "  \"accesses_per_phase\": %llu,\n"
                     "  \"max_auto_rollbacks\": %u,\n"
                     "  \"checkpoint_interval\": %u,\n"
                     "  \"deterministic\": %s,\n"
                     "  \"points\": [\n",
                     workload.c_str(),
                     static_cast<unsigned long long>(misses),
                     kMaxRollbacks, kCkptInterval,
                     deterministic ? "true" : "false");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            const PointResult &r = row.r;
            std::fprintf(
                f,
                "    {\"profile\": \"%s\", \"policy\": \"%s\", "
                "\"availability\": %.4f, "
                "\"injected\": %llu, \"detected\": %llu, "
                "\"tier0_healed\": %llu, "
                "\"tier1_quarantined\": %llu, "
                "\"tier1_evacuations\": %llu, "
                "\"tier2_entries\": %llu, "
                "\"tier2_degraded_ticks\": %llu, "
                "\"tier2_emergency_evictions\": %llu, "
                "\"tier3_rollbacks\": %llu, "
                "\"replayed_accesses\": %llu, "
                "\"mttr_accesses\": %.2f, "
                "\"peak_stash\": %llu}%s\n",
                row.profile, row.policy, r.availability(),
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.detected),
                static_cast<unsigned long long>(r.tier0Healed),
                static_cast<unsigned long long>(r.tier1Quarantined),
                static_cast<unsigned long long>(r.tier1Evacuations),
                static_cast<unsigned long long>(r.tier2Entries),
                static_cast<unsigned long long>(r.tier2Ticks),
                static_cast<unsigned long long>(r.tier2Evictions),
                static_cast<unsigned long long>(r.tier3Rollbacks),
                static_cast<unsigned long long>(r.replayedAccesses),
                r.mttr(),
                static_cast<unsigned long long>(r.peakStash),
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
    } else {
        std::fprintf(
            stderr,
            "chaos_storm: cannot write BENCH_resilience.json\n");
    }

    return deterministic ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
