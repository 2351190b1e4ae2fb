/**
 * @file
 * End-to-end checkpoint/restore: a run interrupted mid-flight and
 * resumed from its snapshot must produce RunMetrics bit-identical to
 * an uninterrupted run, across every scheme — and a damaged snapshot
 * must demote through the recovery tiers (previous generation, then
 * deterministic replay) instead of crashing or silently diverging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include "../obs/PanicFlightUtil.hh"
#include "../sim/RunMetricsUtil.hh"
#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "common/Logging.hh"
#include "crypto/Prf.hh"
#include "sim/ExperimentRunner.hh"
#include "svc/Service.hh"

using namespace sboram;
using sboram::test::expectSameMetrics;

namespace {

constexpr std::uint64_t kMisses = 1500;
constexpr std::uint64_t kSeed = 99;

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sbckpt-resume-XXXXXX";
        const char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        _path = d;
    }

    ~TempDir()
    {
        if (DIR *d = opendir(_path.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((_path + "/" + name).c_str());
            }
            closedir(d);
        }
        ::rmdir(_path.c_str());
    }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

std::string
slotFile(const std::string &dir, std::uint64_t key, unsigned slot)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return dir + "/pt-" + std::string(buf) + ".g" +
           std::to_string(slot);
}

void
flipByte(const std::string &path, std::size_t offset)
{
    std::vector<std::uint8_t> image = ckpt::readFile(path);
    ASSERT_GT(image.size(), offset);
    image[offset] ^= 0x40;
    ckpt::writeFileAtomic(path, image);
}

SystemConfig
smallSystem(Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 14;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.onChipPosMapEntries = 1 << 10;
    cfg.oram.seed = 3;
    return cfg;
}

struct NamedConfig
{
    const char *name;
    SystemConfig cfg;
};

/** Every scheme/feature combination the snapshot has to cover. */
std::vector<NamedConfig>
resumeMatrix()
{
    std::vector<NamedConfig> matrix;

    matrix.push_back({"insecure", smallSystem(Scheme::Insecure)});

    {
        SystemConfig cfg = smallSystem(Scheme::Tiny);
        cfg.oram.posMapMode = PosMapMode::OnChip;
        matrix.push_back({"tiny-onchip", cfg});
    }
    matrix.push_back({"tiny-recursive", smallSystem(Scheme::Tiny)});

    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::RdOnly;
        matrix.push_back({"shadow-rd", cfg});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::HdOnly;
        matrix.push_back({"shadow-hd", cfg});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::DynamicPartition;
        cfg.timingProtection = true;
        cfg.recordPerMiss = true;
        matrix.push_back({"shadow-dynamic-tp", cfg});
    }
    {
        // Payload mode with live fault injection: the injector's
        // stuck-cell table and the ciphertext store must both
        // survive the round trip for the fault counters to match.
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.oram.payloadEnabled = true;
        cfg.oram.fault.rate = 0.02;
        cfg.oram.fault.seed = 11;
        cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
        matrix.push_back({"shadow-faults", cfg});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Tiny);
        cfg.cpu = CpuKind::OutOfOrder;
        cfg.cores = 2;
        cfg.window = 4;
        matrix.push_back({"tiny-ooo", cfg});
    }
    return matrix;
}

/**
 * Interrupt @p cfg after @p stopAt accesses (final snapshot written),
 * then resume from the same directory and run to completion.
 */
RunMetrics
interruptThenResume(const SystemConfig &cfg,
                    const std::vector<LlcMissRecord> &trace,
                    const std::string &dir, std::uint64_t interval,
                    std::uint64_t stopAt)
{
    const std::uint64_t key = configFingerprint(cfg);

    SystemConfig interrupted = cfg;
    interrupted.checkpointInterval = interval;
    interrupted.interruptAfterAccesses = stopAt;
    ckpt::CheckpointSession first(dir, key);
    EXPECT_THROW(runSystem(interrupted, trace, &first),
                 InterruptedError);

    SystemConfig resumed = cfg;
    resumed.checkpointInterval = interval;
    ckpt::CheckpointSession second(dir, key);
    return runSystem(resumed, trace, &second);
}

class CkptResume : public ::testing::Test
{
  protected:
    void SetUp() override { ckpt::clearStopForTesting(); }

    void
    TearDown() override
    {
        ckpt::clearStopForTesting();
        ckpt::setDirectoryForTesting(nullptr);
    }
};

} // namespace

TEST_F(CkptResume, ResumedRunMatchesUninterruptedAcrossSchemes)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    for (const NamedConfig &point : resumeMatrix()) {
        SCOPED_TRACE(point.name);
        const RunMetrics m0 = runSystem(point.cfg, trace);

        TempDir dir;
        const RunMetrics m1 = interruptThenResume(
            point.cfg, trace, dir.path(), 157, 450);
        expectSameMetrics(m0, m1);
    }
}

TEST_F(CkptResume, SurvivesRepeatedInterruptions)
{
    const auto trace = makeTrace("hmmer", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.shadow.mode = ShadowMode::DynamicPartition;
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    const std::uint64_t key = configFingerprint(cfg);
    for (std::uint64_t stopAt : {300u, 700u, 1100u}) {
        SystemConfig interrupted = cfg;
        interrupted.checkpointInterval = 200;
        interrupted.interruptAfterAccesses = stopAt;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(runSystem(interrupted, trace, &session),
                     InterruptedError);
    }

    SystemConfig resumed = cfg;
    resumed.checkpointInterval = 200;
    ckpt::CheckpointSession last(dir.path(), key);
    expectSameMetrics(m0, runSystem(resumed, trace, &last));
}

TEST_F(CkptResume, CorruptedLatestFallsBackToPreviousGeneration)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    const std::uint64_t key = configFingerprint(cfg);
    {
        SystemConfig interrupted = cfg;
        interrupted.checkpointInterval = 157;
        interrupted.interruptAfterAccesses = 450;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(runSystem(interrupted, trace, &session),
                     InterruptedError);
    }

    // Both generations exist now; tamper with the newer one.
    const std::string g0 = slotFile(dir.path(), key, 0);
    const std::string g1 = slotFile(dir.path(), key, 1);
    const std::uint64_t seq0 =
        ckpt::SnapshotReader(ckpt::readFile(g0)).seq();
    const std::uint64_t seq1 =
        ckpt::SnapshotReader(ckpt::readFile(g1)).seq();
    ASSERT_NE(seq0, seq1);
    flipByte(seq0 > seq1 ? g0 : g1, 50);

    const std::uint64_t fallbacksBefore =
        ckpt::counters().resumedFromFallback.load();
    SystemConfig resumed = cfg;
    resumed.checkpointInterval = 157;
    ckpt::CheckpointSession session(dir.path(), key);
    expectSameMetrics(m0, runSystem(resumed, trace, &session));
    EXPECT_EQ(ckpt::counters().resumedFromFallback.load(),
              fallbacksBefore + 1);
}

TEST_F(CkptResume, VersionSkewIsRejectedBeforeAnyStateIsRestored)
{
    // A snapshot from a different format version (the slab layout
    // bumped kSnapshotVersion) must be rejected at reader
    // construction — before a single field of the target system is
    // mutated — and demote to the previous generation exactly like
    // corruption does.  Payload + faults so the ciphertext slab serde
    // is on the restored path.
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.02;
    cfg.oram.fault.seed = 11;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    const std::uint64_t key = configFingerprint(cfg);
    {
        SystemConfig interrupted = cfg;
        interrupted.checkpointInterval = 157;
        interrupted.interruptAfterAccesses = 450;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(runSystem(interrupted, trace, &session),
                     InterruptedError);
    }

    // The version u32 sits at byte 8, right after the magic.  Skew
    // the newest generation's version field.
    const std::string g0 = slotFile(dir.path(), key, 0);
    const std::string g1 = slotFile(dir.path(), key, 1);
    const std::uint64_t seq0 =
        ckpt::SnapshotReader(ckpt::readFile(g0)).seq();
    const std::uint64_t seq1 =
        ckpt::SnapshotReader(ckpt::readFile(g1)).seq();
    const std::string &newest = seq0 > seq1 ? g0 : g1;
    flipByte(newest, 8);
    EXPECT_THROW(ckpt::SnapshotReader(ckpt::readFile(newest)),
                 CkptVersionError);

    const std::uint64_t fallbacksBefore =
        ckpt::counters().resumedFromFallback.load();
    SystemConfig resumed = cfg;
    resumed.checkpointInterval = 157;
    ckpt::CheckpointSession session(dir.path(), key);
    expectSameMetrics(m0, runSystem(resumed, trace, &session));
    EXPECT_EQ(ckpt::counters().resumedFromFallback.load(),
              fallbacksBefore + 1);
}

TEST_F(CkptResume, BothGenerationsCorruptedReplaysFromStart)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Tiny);
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    const std::uint64_t key = configFingerprint(cfg);
    {
        SystemConfig interrupted = cfg;
        interrupted.checkpointInterval = 157;
        interrupted.interruptAfterAccesses = 450;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(runSystem(interrupted, trace, &session),
                     InterruptedError);
    }

    // One generation tampered, the other torn mid-write.
    flipByte(slotFile(dir.path(), key, 0), 50);
    std::vector<std::uint8_t> torn =
        ckpt::readFile(slotFile(dir.path(), key, 1));
    torn.resize(60);
    ckpt::writeFileAtomic(slotFile(dir.path(), key, 1), torn);

    const std::uint64_t replaysBefore =
        ckpt::counters().replaysFromStart.load();
    SystemConfig resumed = cfg;
    resumed.checkpointInterval = 157;
    ckpt::CheckpointSession session(dir.path(), key);
    expectSameMetrics(m0, runSystem(resumed, trace, &session));
    EXPECT_EQ(ckpt::counters().replaysFromStart.load(),
              replaysBefore + 1);
}

namespace {

/**
 * A shadow system under fault pressure heavy enough that tier-0
 * shadow healing eventually fails, with the whole recovery ladder
 * armed: quarantine, backpressure watermarks, fail-fast
 * unrecoverable policy, and a tier-3 rollback budget.  Watermarks
 * stay above the steady-state stash occupancy: pinning them below it
 * would suppress duplication permanently and strip the tier-0 heals
 * the rollback budget is sized for (the obliviousness tests drive
 * degraded mode directly instead).
 */
SystemConfig
ladderSystem()
{
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.005;
    cfg.oram.fault.seed = 11;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Throw;
    cfg.oram.health.quarantineThreshold = 2;
    cfg.oram.health.stashHighWatermark = 10;
    cfg.oram.health.stashLowWatermark = 4;
    // Generous budget: the fallback test below pins the cadence past
    // the end of the trace, so every rollback replays the whole tail
    // under a fresh realization and may need several attempts.
    cfg.maxAutoRollbacks = 32;
    cfg.checkpointInterval = 157;
    return cfg;
}

} // namespace

TEST_F(CkptResume, AutoRollbackCompletesWhatWouldOtherwiseThrow)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    const SystemConfig cfg = ladderSystem();

    // Anchor: without a checkpoint session there is no tier 3, so
    // the same corruption that the ladder survives below is fatal,
    // and the flight ring reaches the panic path before the rethrow.
    obs::resetFlightStateForTesting();
    EXPECT_THROW(runSystem(cfg, trace), CorruptionError);
    test::expectPanicFlight(
        test::fingerprintLabel("sys", configFingerprint(cfg)),
        "corruption");

    // With a session the run rolls back, shifts the fault
    // realization, replays, and completes.
    TempDir dirA;
    ckpt::CheckpointSession a(dirA.path(), configFingerprint(cfg));
    const RunMetrics mA = runSystem(cfg, trace, &a);
    EXPECT_GE(mA.rollbacks, 1u);
    EXPECT_GE(mA.replayedAccesses, 1u);
    EXPECT_EQ(mA.requests, trace.size() + mA.oram.dummyAccesses);

    // Recovery itself is deterministic: an identical second run —
    // rollbacks, replays and all — lands on bit-identical metrics.
    TempDir dirB;
    ckpt::CheckpointSession b(dirB.path(), configFingerprint(cfg));
    expectSameMetrics(mA, runSystem(cfg, trace, &b));
}

TEST_F(CkptResume, CorruptedLatestFallsBackDuringAutoRollback)
{
    // Negative path inside tier 3: when the rollback handler loads a
    // snapshot and the newest generation is corrupt, it must demote a
    // generation — mid-recovery — exactly like resume does, and the
    // whole scripted disaster must still be deterministic.
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    const SystemConfig cfg = ladderSystem();
    const std::uint64_t key = configFingerprint(cfg);

    auto scriptedDisaster = [&](const std::string &dir) {
        // Interrupt late so the generation the resume falls back to
        // is near the end of the trace: with the cadence then pushed
        // past the trace end, every rollback replays only the short
        // tail, which a shifted realization can actually complete.
        SystemConfig interrupted = cfg;
        interrupted.interruptAfterAccesses = 1350;
        {
            ckpt::CheckpointSession session(dir, key);
            EXPECT_THROW(runSystem(interrupted, trace, &session),
                         InterruptedError);
        }

        // Tamper with the newer generation on disk.
        const std::string g0 = slotFile(dir, key, 0);
        const std::string g1 = slotFile(dir, key, 1);
        const std::uint64_t seq0 =
            ckpt::SnapshotReader(ckpt::readFile(g0)).seq();
        const std::uint64_t seq1 =
            ckpt::SnapshotReader(ckpt::readFile(g1)).seq();
        flipByte(seq0 > seq1 ? g0 : g1, 50);

        // Resume with the cadence pushed past the end of the trace:
        // no new snapshot ever overwrites the tampered file, so
        // every in-rollback loadLatest sees it and must demote.
        SystemConfig resumed = cfg;
        resumed.checkpointInterval = 1u << 20;
        ckpt::CheckpointSession session(dir, key);
        return runSystem(resumed, trace, &session);
    };

    const std::uint64_t fallbacksBefore =
        ckpt::counters().resumedFromFallback.load();
    TempDir dirA;
    const RunMetrics mA = scriptedDisaster(dirA.path());
    EXPECT_GE(mA.rollbacks, 1u);
    // One demotion at resume, plus one per rollback that reached
    // loadLatest (at minimum the first — escalation to the pristine
    // image, when it happens, bypasses the generation walk).
    EXPECT_GE(ckpt::counters().resumedFromFallback.load(),
              fallbacksBefore + 2);

    TempDir dirB;
    expectSameMetrics(mA, scriptedDisaster(dirB.path()));
}

TEST_F(CkptResume, QuarantineSpareStoreRoundTripsThroughSnapshot)
{
    // Tier-1 remap state — the failure-count table, the quarantine
    // set, and the on-chip spare store holding parked payloads — must
    // ride the snapshot: a run interrupted mid-campaign and resumed
    // matches the straight run bit for bit.  (A lost spare entry
    // would surface immediately: the parked slot's ciphertext stripe
    // is erased, so rereading it would count a spurious detection.)
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.02;
    cfg.oram.fault.seed = 23;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    cfg.oram.health.quarantineThreshold = 1;

    const RunMetrics m0 = runSystem(cfg, trace);
    // The campaign must actually populate the remap machinery, or
    // this proves nothing about its serialization.
    EXPECT_GT(m0.oram.slotsQuarantined, 0u);
    EXPECT_GT(m0.oram.quarantineEvacuations, 0u);

    TempDir dir;
    const std::uint64_t key = configFingerprint(cfg);
    {
        SystemConfig interrupted = cfg;
        interrupted.checkpointInterval = 157;
        interrupted.interruptAfterAccesses = 900;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(runSystem(interrupted, trace, &session),
                     InterruptedError);
    }
    SystemConfig resumed = cfg;
    resumed.checkpointInterval = 157;
    ckpt::CheckpointSession session(dir.path(), key);
    expectSameMetrics(m0, runSystem(resumed, trace, &session));
}

TEST_F(CkptResume, StopRequestWritesFinalSnapshotThenResumes)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    const std::uint64_t key = configFingerprint(cfg);
    SystemConfig interrupted = cfg;
    interrupted.checkpointInterval = 400;
    ckpt::CheckpointSession first(dir.path(), key);
    ckpt::requestStop(); // What SIGINT/SIGTERM would set.
    EXPECT_THROW(runSystem(interrupted, trace, &first),
                 InterruptedError);
    ckpt::clearStopForTesting();

    SystemConfig resumed = cfg;
    resumed.checkpointInterval = 400;
    ckpt::CheckpointSession second(dir.path(), key);
    expectSameMetrics(m0, runSystem(resumed, trace, &second));
}

TEST_F(CkptResume, RunnerAnswersCompletedPointFromDoneMarker)
{
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.recordPerMiss = true;

    TempDir dir;
    ckpt::setDirectoryForTesting(dir.path().c_str());

    RunMetrics m0, m1;
    {
        ExperimentRunner runner(1);
        m0 = runner.submit(cfg, "sjeng", kMisses, kSeed).get();
    }
    const std::uint64_t reusedBefore =
        ckpt::counters().pointsReused.load();
    {
        ExperimentRunner runner(1);
        m1 = runner.submit(cfg, "sjeng", kMisses, kSeed).get();
    }
    // The relaunch answered from the .done marker — same metrics,
    // no rerun — which also round-trips every RunMetrics field
    // through saveRunMetrics/loadRunMetrics.
    EXPECT_EQ(ckpt::counters().pointsReused.load(), reusedBefore + 1);
    expectSameMetrics(m0, m1);
}

namespace {

/**
 * Re-frame a snapshot image under another format version with a MAC
 * that verifies: what a build at that version would have written for
 * the same section bytes.  The MAC chain mirrors ckpt/Snapshot.cc's.
 */
std::vector<std::uint8_t>
reframeAsVersion(std::vector<std::uint8_t> image, std::uint32_t version)
{
    // The version u32 sits at byte 8, right after the magic.
    for (int i = 0; i < 4; ++i)
        image[8 + i] = static_cast<std::uint8_t>(version >> (8 * i));
    const std::size_t macAt = image.size() - 8;
    const PrfKey key{0x73626f72616d636bULL, 0x70742d6d61632d31ULL};
    std::uint64_t tag = prf64(key, 0xa5a5a5a5a5a5a5a5ULL, macAt);
    std::uint64_t counter = 0;
    for (std::size_t pos = 0; pos < macAt; pos += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, image.data() + pos,
                    std::min<std::size_t>(8, macAt - pos));
        tag = prf64(key, tag ^ word, ++counter);
    }
    for (int i = 0; i < 8; ++i)
        image[macAt + i] = static_cast<std::uint8_t>(tag >> (8 * i));
    return image;
}

/** The one completed-point marker in @p dir. */
std::string
doneMarker(const std::string &dir)
{
    std::vector<std::string> found;
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *e = readdir(d)) {
            const std::string name = e->d_name;
            if (name.size() > 5 &&
                name.compare(name.size() - 5, 5, ".done") == 0)
                found.push_back(dir + "/" + name);
        }
        closedir(d);
    }
    EXPECT_EQ(found.size(), 1u);
    return found.empty() ? std::string() : found.front();
}

} // namespace

TEST_F(CkptResume, RunnerRerunsPointWhoseDoneMarkerIsVersion6)
{
    // A version-6 marker laid out its record in the old field order;
    // read as today's layout it would yield wrong counters.  It must
    // be rejected, and the point rerun to the fresh result.
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.recordPerMiss = true;

    TempDir dir;
    ckpt::setDirectoryForTesting(dir.path().c_str());

    RunMetrics fresh, rerun;
    {
        ExperimentRunner runner(1);
        fresh = runner.submit(cfg, "sjeng", kMisses, kSeed).get();
    }
    const std::string done = doneMarker(dir.path());
    const std::vector<std::uint8_t> image = ckpt::readFile(done);
    ASSERT_EQ(reframeAsVersion(image, ckpt::kSnapshotVersion), image);
    ckpt::writeFileAtomic(done, reframeAsVersion(image, 6));

    const std::uint64_t reusedBefore =
        ckpt::counters().pointsReused.load();
    {
        ExperimentRunner runner(1);
        rerun = runner.submit(cfg, "sjeng", kMisses, kSeed).get();
    }
    EXPECT_EQ(ckpt::counters().pointsReused.load(), reusedBefore);
    expectSameMetrics(fresh, rerun);
    // The rerun committed a current-version marker in its place.
    EXPECT_EQ(ckpt::readFile(done), image);
}

TEST_F(CkptResume, FingerprintIgnoresCadenceButSeesSemantics)
{
    const SystemConfig base = smallSystem(Scheme::Shadow);

    SystemConfig cadence = base;
    cadence.checkpointInterval = 777;
    cadence.interruptAfterAccesses = 5;
    EXPECT_EQ(configFingerprint(base), configFingerprint(cadence));

    SystemConfig semantic = base;
    semantic.oram.evictionRate = 4;
    EXPECT_NE(configFingerprint(base), configFingerprint(semantic));

    SystemConfig shadow = base;
    shadow.shadow.driCounterBits = 4;
    EXPECT_NE(configFingerprint(base), configFingerprint(shadow));
}

namespace {

/** Bursty, shedding, fault-ridden service point: the snapshot must
 *  carry the arrival cursor, the admitted-but-unissued queue, the
 *  pressure latch and the in-flight retry state. */
svc::ServiceConfig
serviceResumeConfig()
{
    svc::ServiceConfig cfg;
    cfg.oram.dataBlocks = 1 << 10;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.oram.seed = 7;
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.05;
    cfg.oram.fault.seed = 97;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    cfg.shadow.mode = ShadowMode::DynamicPartition;
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.clients = 1000;
    cfg.arrivals.addressBlocks = 256;
    cfg.arrivals.meanGapCycles = 400.0;
    cfg.arrivals.burstFactor = 6.0;
    cfg.arrivals.burstOnCycles = 60'000;
    cfg.arrivals.burstOffCycles = 120'000;
    cfg.arrivals.seed = 21;
    cfg.requests = 600;
    cfg.queueCapacity = 32;
    cfg.queueHighWatermark = 24;
    cfg.queueLowWatermark = 8;
    cfg.deadline = 30'000;
    cfg.maxRetries = 1;
    return cfg;
}

void
expectSameServiceStats(const svc::ServiceStats &a,
                       const svc::ServiceStats &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dedupJoins, b.dedupJoins);
    EXPECT_EQ(a.shadowEarlyCompletions, b.shadowEarlyCompletions);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
    EXPECT_EQ(a.shedAdmission, b.shedAdmission);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.backpressureEntries, b.backpressureEntries);
    EXPECT_EQ(a.backpressureExits, b.backpressureExits);
    EXPECT_EQ(a.issuedAccesses, b.issuedAccesses);
    EXPECT_EQ(a.finishTime, b.finishTime);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.latencyP999, b.latencyP999);
    EXPECT_EQ(a.latencyMax, b.latencyMax);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
    EXPECT_EQ(a.oram.pathReads, b.oram.pathReads);
    EXPECT_EQ(a.oram.pathWrites, b.oram.pathWrites);
    EXPECT_EQ(a.oram.shadowForwards, b.oram.shadowForwards);
    EXPECT_EQ(a.oram.shadowsWritten, b.oram.shadowsWritten);
    EXPECT_EQ(a.oram.faultsInjected, b.oram.faultsInjected);
    EXPECT_EQ(a.oram.faultsDetected, b.oram.faultsDetected);
    EXPECT_EQ(a.oram.faultsRecovered, b.oram.faultsRecovered);
    EXPECT_EQ(a.oram.faultsUnrecoverable, b.oram.faultsUnrecoverable);
}

} // namespace

TEST_F(CkptResume, ServiceRunKilledMidStreamResumesBitIdentically)
{
    // The service snapshot (kSectionSvc at kSnapshotVersion 4) must
    // carry everything the scheduler is: generator cursor, lookahead
    // record, queue with per-request retry state, pressure latch,
    // stats and the latency sample — a run interrupted mid-overload
    // and resumed matches the straight run stat for stat.
    const svc::ServiceConfig cfg = serviceResumeConfig();
    const svc::ServiceStats s0 = svc::runService(cfg);
    // The interruption point below lands mid-campaign: sheds and
    // backpressure must be live in the final numbers or the snapshot
    // never saw them in flight.
    EXPECT_GT(s0.requestsShed, 0u);
    EXPECT_GT(s0.backpressureEntries, 0u);
    EXPECT_GT(s0.oram.faultsInjected, 0u);

    TempDir dir;
    const std::uint64_t key = svc::serviceConfigFingerprint(cfg);
    {
        svc::ServiceConfig interrupted = cfg;
        interrupted.checkpointInterval = 50;
        interrupted.interruptAfterResolved = 250;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(svc::runService(interrupted, &session),
                     InterruptedError);
    }
    // The resumed config clears the interrupt seam (it already
    // fired); the fingerprint ignores both cadence fields, so the
    // session still addresses the same snapshot files.
    svc::ServiceConfig resumed = cfg;
    resumed.checkpointInterval = 50;
    ckpt::CheckpointSession session(dir.path(), key);
    expectSameServiceStats(s0, svc::runService(resumed, &session));
}

TEST_F(CkptResume, ServiceStopRequestWritesFinalSnapshotThenResumes)
{
    const svc::ServiceConfig cfg = serviceResumeConfig();
    const svc::ServiceStats s0 = svc::runService(cfg);

    TempDir dir;
    const std::uint64_t key = svc::serviceConfigFingerprint(cfg);
    {
        svc::ServiceConfig interrupted = cfg;
        interrupted.checkpointInterval = 100;
        ckpt::CheckpointSession session(dir.path(), key);
        ckpt::requestStop();  // What SIGINT/SIGTERM would set.
        EXPECT_THROW(svc::runService(interrupted, &session),
                     InterruptedError);
        ckpt::clearStopForTesting();
    }
    svc::ServiceConfig resumed = cfg;
    resumed.checkpointInterval = 100;
    ckpt::CheckpointSession session(dir.path(), key);
    expectSameServiceStats(s0, svc::runService(resumed, &session));
}

TEST_F(CkptResume, UnwritableCheckpointDirIsOneLineFatal)
{
    // Satellite: SB_CKPT_DIR pointing somewhere unusable must be a
    // nonzero exit with a diagnostic, not a silent no-checkpoint run.
    EXPECT_EXIT(
        {
            ckpt::setDirectoryForTesting("/dev/null/not-a-dir");
            ckpt::activeDirectory();
        },
        ::testing::ExitedWithCode(kFatalExitCode), "not writable");
}
