#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "../oram/OramTestUtil.hh"
#include "ckpt/Serde.hh"
#include "common/Errors.hh"
#include "common/Rng.hh"
#include "fault/FaultInjector.hh"
#include "obs/Observer.hh"
#include "security/InvariantChecker.hh"
#include "sim/System.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

/** Drive @p n random accesses and return the final time. */
Cycles
drive(TinyOram &oram, int n, std::uint64_t addrSpace,
      std::uint64_t rngSeed = 91)
{
    Rng rng(rngSeed);
    Cycles t = 0;
    for (int i = 0; i < n; ++i) {
        t = oram.access(rng.below(addrSpace),
                        rng.chance(0.3) ? Op::Write : Op::Read,
                        t + 150)
                .completeAt;
    }
    return t;
}

OramConfig
faultyConfig(double rate, UnrecoverablePolicy policy)
{
    OramConfig cfg = smallConfig();
    cfg.fault.rate = rate;
    cfg.fault.seed = 42;
    cfg.fault.onUnrecoverable = policy;
    return cfg;
}

/** Every OramStats field, in serde order, for whole-struct deltas. */
std::vector<std::uint64_t>
statWords(const OramStats &st)
{
    ckpt::Serializer out;
    OramStats::serde(st, out);
    const std::vector<std::uint8_t> &b = out.buffer();
    std::vector<std::uint64_t> words(b.size() / 8, 0);
    for (std::size_t i = 0; i < b.size(); ++i)
        words[i / 8] |= std::uint64_t(b[i]) << (8 * (i % 8));
    return words;
}

/** Tree slots whose stored ciphertext fails its tag (read-only). */
std::vector<std::uint64_t>
corruptSlots(const TinyOram &oram)
{
    const OtpCodec codec;
    const OramTree &tree = oram.tree();
    std::vector<std::uint64_t> out;
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            const std::uint64_t idx = tree.slotIndex(b, s);
            if (tree.slot(b, s).valid() &&
                !codec.verify(tree.cipherView(idx)))
                out.push_back(idx);
        }
    }
    return out;
}

} // namespace

TEST(FaultInjector, ScheduleIsDeterministicAndSeedSensitive)
{
    FaultConfig cfg;
    cfg.rate = 0.01;
    cfg.seed = 5;
    FaultInjector a(cfg), b(cfg);
    cfg.seed = 6;
    FaultInjector c(cfg);

    int fires = 0, diverged = 0;
    for (std::uint64_t tick = 0; tick < 20000; ++tick) {
        ASSERT_EQ(a.shouldInject(tick), b.shouldInject(tick));
        if (a.shouldInject(tick)) {
            ++fires;
            EXPECT_EQ(a.pickTarget(tick, 17), b.pickTarget(tick, 17));
            EXPECT_EQ(a.pickKind(tick), b.pickKind(tick));
        }
        if (a.shouldInject(tick) != c.shouldInject(tick))
            ++diverged;
    }
    // 20000 draws at 1% — expect ~200, generously bounded.
    EXPECT_GT(fires, 100);
    EXPECT_LT(fires, 400);
    EXPECT_GT(diverged, 0) << "seed has no effect on the schedule";
}

TEST(FaultInjector, ZeroRateNeverFires)
{
    FaultConfig cfg;
    cfg.rate = 0.0;
    FaultInjector inj(cfg);
    for (std::uint64_t tick = 0; tick < 5000; ++tick)
        EXPECT_FALSE(inj.shouldInject(tick));
}

TEST(FaultInjector, CorruptionDefeatsTheAuthTag)
{
    OtpCodec codec;
    const std::vector<std::uint64_t> payload(8, 0x1234);
    FaultConfig cfg;
    cfg.rate = 1.0;
    FaultInjector inj(cfg);

    for (FaultKind kind : {FaultKind::BitFlip, FaultKind::DroppedWrite,
                           FaultKind::StuckBit}) {
        CipherText ct = codec.encrypt(payload);
        inj.corrupt(ct, /*accessCount=*/7, kind, /*slotIdx=*/3);
        std::vector<std::uint64_t> out;
        EXPECT_FALSE(codec.verifyDecrypt(ct, out))
            << "kind " << static_cast<int>(kind)
            << " left the ciphertext verifiable";
    }
    EXPECT_EQ(inj.stats().bitFlips, 1u);
    EXPECT_EQ(inj.stats().droppedWrites, 1u);
    EXPECT_EQ(inj.stats().stuckBits, 1u);
    EXPECT_EQ(inj.stats().total(), 3u);
}

TEST(FaultInjector, StuckBitSurvivesConfiguredRewrites)
{
    OtpCodec codec;
    const std::vector<std::uint64_t> payload(8, 9);
    FaultConfig cfg;
    cfg.rate = 1.0;
    cfg.stuckWrites = 2;
    FaultInjector inj(cfg);

    CipherText ct = codec.encrypt(payload);
    inj.corrupt(ct, 0, FaultKind::StuckBit, /*slotIdx=*/11);

    // The next two rewrites of slot 11 are re-corrupted, then the
    // cell heals; other slots are never touched.
    CipherText other = codec.encrypt(payload);
    EXPECT_FALSE(inj.onSlotRewritten(12, other));

    CipherText fresh1 = codec.encrypt(payload);
    EXPECT_TRUE(inj.onSlotRewritten(11, fresh1));
    std::vector<std::uint64_t> out;
    EXPECT_FALSE(codec.verifyDecrypt(fresh1, out));

    CipherText fresh2 = codec.encrypt(payload);
    EXPECT_TRUE(inj.onSlotRewritten(11, fresh2));

    CipherText fresh3 = codec.encrypt(payload);
    EXPECT_FALSE(inj.onSlotRewritten(11, fresh3));
    EXPECT_TRUE(codec.verifyDecrypt(fresh3, out));
    EXPECT_EQ(inj.stats().stuckReapplied, 2u);
}

TEST(FaultInjector, FromEnvParsesAndValidates)
{
    setenv("SB_FAULT_RATE", "0.25", 1);
    setenv("SB_FAULT_SEED", "77", 1);
    setenv("SB_FAULT_KINDS", "flip,stuck", 1);
    setenv("SB_FAULT_UNRECOVERABLE", "count", 1);
    FaultConfig cfg = FaultConfig::fromEnv();
    EXPECT_DOUBLE_EQ(cfg.rate, 0.25);
    EXPECT_EQ(cfg.seed, 77u);
    EXPECT_TRUE(cfg.bitFlips);
    EXPECT_FALSE(cfg.droppedWrites);
    EXPECT_TRUE(cfg.stuckBits);
    EXPECT_EQ(cfg.onUnrecoverable, UnrecoverablePolicy::Count);

    // Invalid values are rejected, keeping the base.
    setenv("SB_FAULT_RATE", "2.5", 1);
    setenv("SB_FAULT_UNRECOVERABLE", "explode", 1);
    FaultConfig kept = FaultConfig::fromEnv();
    EXPECT_DOUBLE_EQ(kept.rate, 0.0);
    EXPECT_EQ(kept.onUnrecoverable, UnrecoverablePolicy::Panic);

    unsetenv("SB_FAULT_RATE");
    unsetenv("SB_FAULT_SEED");
    unsetenv("SB_FAULT_KINDS");
    unsetenv("SB_FAULT_UNRECOVERABLE");
}

TEST(FaultRecovery, ZeroRateLeavesEveryCounterZero)
{
    auto fx = makeShadowFixture(smallConfig());
    drive(fx->oram, 800, 1 << 10);
    const OramStats &st = fx->oram.stats();
    EXPECT_EQ(fx->oram.faultInjector(), nullptr);
    EXPECT_EQ(st.faultsInjected, 0u);
    EXPECT_EQ(st.faultsDetected, 0u);
    EXPECT_EQ(st.faultsRecovered, 0u);
    EXPECT_EQ(st.faultsUnrecoverable, 0u);
    EXPECT_TRUE(checkInvariants(fx->oram).ok);
}

TEST(FaultRecovery, ShadowCopiesHealCorruptedRealBlocks)
{
    auto fx = makeShadowFixture(
        faultyConfig(0.05, UnrecoverablePolicy::Count));
    drive(fx->oram, 2500, 1 << 10);
    const OramStats &st = fx->oram.stats();

    EXPECT_GT(st.faultsInjected, 0u);
    EXPECT_GT(st.faultsDetected, 0u);
    EXPECT_GT(st.faultsRecovered, 0u)
        << "duplication never healed a corruption";
    EXPECT_EQ(st.faultsDetected,
              st.faultsRecovered + st.faultsUnrecoverable);

    // The fault path must not corrupt controller metadata: the full
    // invariant walk still passes after thousands of faulty accesses.
    EXPECT_TRUE(checkInvariants(fx->oram).ok);
}

TEST(FaultRecovery, BaselineWithoutShadowsLosesEveryCorruptedReal)
{
    // No duplication policy: every detected corruption of a real
    // block is unrecoverable (there is nothing to heal from).
    OramFixture fx(faultyConfig(0.05, UnrecoverablePolicy::Count));
    drive(fx.oram, 2500, 1 << 10);
    const OramStats &st = fx.oram.stats();
    EXPECT_GT(st.faultsDetected, 0u);
    EXPECT_EQ(st.faultsRecovered, 0u);
    EXPECT_EQ(st.faultsUnrecoverable, st.faultsDetected);
}

TEST(FaultRecovery, ThrowPolicyRaisesRetryableCorruptionError)
{
    OramFixture fx(faultyConfig(0.2, UnrecoverablePolicy::Throw));
    try {
        drive(fx.oram, 4000, 1 << 10);
        FAIL() << "no corruption surfaced at 20% fault rate";
    } catch (const CorruptionError &e) {
        EXPECT_TRUE(e.retryable())
            << "injected faults are transient by construction";
        EXPECT_NE(std::string(e.what()).find("integrity violation"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultRecovery, InjectionIsReproducibleRunToRun)
{
    OramConfig cfg = faultyConfig(0.05, UnrecoverablePolicy::Count);
    auto a = makeShadowFixture(cfg);
    auto b = makeShadowFixture(cfg);
    drive(a->oram, 1500, 1 << 10);
    drive(b->oram, 1500, 1 << 10);
    EXPECT_EQ(a->oram.stats().faultsInjected,
              b->oram.stats().faultsInjected);
    EXPECT_EQ(a->oram.stats().faultsDetected,
              b->oram.stats().faultsDetected);
    EXPECT_EQ(a->oram.stats().faultsRecovered,
              b->oram.stats().faultsRecovered);
    EXPECT_EQ(a->oram.stats().faultsUnrecoverable,
              b->oram.stats().faultsUnrecoverable);
}

TEST(FaultRecovery, FaultInjectionRequiresPayloadMode)
{
    OramConfig cfg = smallConfig();
    cfg.payloadEnabled = false;
    cfg.fault.rate = 0.01;
    EXPECT_EXIT(
        { OramFixture fx(cfg); },
        testing::ExitedWithCode(kFatalExitCode), "payload mode");
}

TEST(Scrub, FaultFreeControllerIsCleanAndLeavesStatsAlone)
{
    auto fx = makeShadowFixture(smallConfig());
    drive(fx->oram, 800, 1 << 10);
    const std::vector<std::uint64_t> before = statWords(fx->oram.stats());
    EXPECT_TRUE(fx->oram.scrubStorage());
    EXPECT_EQ(statWords(fx->oram.stats()), before);
    EXPECT_TRUE(checkInvariants(fx->oram).ok);
}

TEST(Scrub, HealsOrReclaimsEveryFaultItCountsAfterRdDupRun)
{
    ShadowConfig scfg;
    scfg.mode = ShadowMode::RdOnly;
    auto fx = makeShadowFixture(
        faultyConfig(0.05, UnrecoverablePolicy::Count), scfg);
    drive(fx->oram, 2500, 1 << 10);
    ASSERT_FALSE(corruptSlots(fx->oram).empty())
        << "the run left no latent corruption to scrub";

    const OramStats before = fx->oram.stats();
    const bool clean = fx->oram.scrubStorage();
    const OramStats &st = fx->oram.stats();
    const std::uint64_t detected =
        st.faultsDetected - before.faultsDetected;
    const std::uint64_t recovered =
        st.faultsRecovered - before.faultsRecovered;
    // The scrub never declares a block lost: an unhealable real is
    // left for the read path, so everything it counts it recovered.
    EXPECT_GT(detected, 0u);
    EXPECT_EQ(detected, recovered);
    EXPECT_EQ(st.faultsUnrecoverable, before.faultsUnrecoverable);
    EXPECT_TRUE(checkInvariants(fx->oram).ok)
        << checkInvariants(fx->oram).firstViolation;

    // No corrupt shadow survives; a corrupt real that does (no copy
    // to heal from, or a stuck cell re-corrupted the rewrite) makes
    // the scrub report false.
    const std::vector<std::uint64_t> left = corruptSlots(fx->oram);
    EXPECT_EQ(clean, left.empty());
    const unsigned z = fx->oram.tree().slotsPerBucket();
    for (std::uint64_t idx : left)
        EXPECT_TRUE(fx->oram.tree()
                        .slot(idx / z, static_cast<unsigned>(idx % z))
                        .isReal());
}

TEST(Scrub, StuckCellItReappliesIsStampedAtItsOwnTimeOnTheCheckpointTrack)
{
    // Stuck cells only, armed for the whole run: a real the scrub
    // heals in a stuck slot is re-corrupted by the scrub's rewrite.
    OramConfig cfg = faultyConfig(0.05, UnrecoverablePolicy::Count);
    cfg.fault.bitFlips = false;
    cfg.fault.droppedWrites = false;
    cfg.fault.stuckWrites = 1000;
    ShadowConfig scfg;
    scfg.mode = ShadowMode::RdOnly;
    auto fx = makeShadowFixture(cfg, scfg);
    obs::ObsConfig ocfg;
    ocfg.trace = true;
    obs::RunObserver observer(ocfg);
    fx->oram.setObserver(&observer);
    drive(fx->oram, 2500, 1 << 10);

    const std::size_t eventsBefore = observer.trace()->eventCount();
    const std::uint64_t injectedBefore = fx->oram.stats().faultsInjected;
    fx->oram.scrubStorage();
    const std::uint64_t reapplied =
        fx->oram.stats().faultsInjected - injectedBefore;
    ASSERT_GT(reapplied, 0u) << "the scrub re-applied no stuck cell";

    // The scrub emits nothing else, and each re-application is an
    // instant at the controller's free time on the checkpoint track,
    // not at the last path access's start on its track.
    EXPECT_EQ(observer.trace()->eventCount() - eventsBefore, reapplied);
    const std::string doc = observer.trace()->render();
    const std::string expected =
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": " +
        std::to_string(obs::kTrackCheckpoint) +
        ", \"ts\": " + std::to_string(fx->oram.freeAt()) +
        ", \"name\": \"fault_stuck_reapplied\"";
    std::uint64_t stamped = 0;
    for (std::size_t at = doc.find(expected); at != std::string::npos;
         at = doc.find(expected, at + 1))
        ++stamped;
    EXPECT_EQ(stamped, reapplied);
}

TEST(Scrub, HealsACorruptRealFromAShadowOnItsPathThenStaysClean)
{
    ShadowConfig scfg;
    scfg.mode = ShadowMode::RdOnly;
    auto fx = makeShadowFixture(smallConfig(), scfg);
    drive(fx->oram, 1500, 1 << 10);
    auto &tree = const_cast<OramTree &>(fx->oram.tree());
    const unsigned z = tree.slotsPerBucket();

    // The real tree block with the most tree shadows and none in the
    // stash: the heal must come from its own path.
    std::map<Addr, std::vector<std::uint64_t>> copies;  // Heap order.
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        for (unsigned s = 0; s < z; ++s) {
            const Slot &slot = tree.slot(b, s);
            if (slot.valid() && !fx->oram.stash().find(slot.addr))
                copies[slot.addr].push_back(tree.slotIndex(b, s));
        }
    }
    Addr addr = 0;
    std::size_t most = 0;
    for (const auto &[a, idx] : copies) {
        if (idx.size() > most) {
            addr = a;
            most = idx.size();
        }
    }
    std::vector<std::uint64_t> shadowIdx = copies[addr];
    ASSERT_GE(shadowIdx.size(), 2u) << "RD-Dup left no tree shadow";
    const std::uint64_t realIdx = shadowIdx.back();  // Deepest copy.
    shadowIdx.pop_back();
    ASSERT_TRUE(tree.slot(realIdx / z, static_cast<unsigned>(realIdx % z))
                    .isReal());
    const std::vector<std::uint64_t> intact = fx->oram.peekPayload(addr);

    // Corrupt the real copy and every tree shadow but the deepest.
    tree.cipherRef(realIdx).lanes[0] ^= 1;
    for (std::size_t i = 0; i + 1 < shadowIdx.size(); ++i)
        tree.cipherRef(shadowIdx[i]).lanes[0] ^= 1;

    const OramStats before = fx->oram.stats();
    EXPECT_TRUE(fx->oram.scrubStorage());
    const OramStats &st = fx->oram.stats();
    EXPECT_EQ(st.faultsDetected - before.faultsDetected,
              shadowIdx.size());
    EXPECT_EQ(st.faultsRecovered - before.faultsRecovered,
              shadowIdx.size());
    EXPECT_TRUE(corruptSlots(fx->oram).empty());
    EXPECT_EQ(fx->oram.peekPayload(addr), intact);
    EXPECT_TRUE(checkInvariants(fx->oram).ok);

    // A scrub that reported clean left nothing for the next one.
    const std::vector<std::uint64_t> healed = statWords(st);
    EXPECT_TRUE(fx->oram.scrubStorage());
    EXPECT_EQ(statWords(fx->oram.stats()), healed);
}

TEST(Scrub, TinyLeavesAnUnhealableRealForTheReadPath)
{
    // No duplication policy: a corrupt real has no copy to heal from.
    OramFixture fx(faultyConfig(0.05, UnrecoverablePolicy::Count));
    const Cycles t = drive(fx.oram, 2500, 1 << 10);
    const std::vector<std::uint64_t> latent = corruptSlots(fx.oram);
    ASSERT_FALSE(latent.empty());

    const std::vector<std::uint64_t> before = statWords(fx.oram.stats());
    EXPECT_FALSE(fx.oram.scrubStorage());
    EXPECT_EQ(statWords(fx.oram.stats()), before);
    EXPECT_EQ(corruptSlots(fx.oram), latent) << "scrub touched a slot";

    // The next read of that block does the accounting (an eviction
    // the access triggers may consume other latent slots too).
    const OramTree &tree = fx.oram.tree();
    const unsigned z = tree.slotsPerBucket();
    const Addr addr =
        tree.slot(latent[0] / z, static_cast<unsigned>(latent[0] % z))
            .addr;
    const OramStats mid = fx.oram.stats();
    fx.oram.access(addr, Op::Read, t + 150);
    const OramStats &st = fx.oram.stats();
    EXPECT_GT(st.faultsDetected, mid.faultsDetected);
    EXPECT_EQ(st.faultsDetected - mid.faultsDetected,
              st.faultsUnrecoverable - mid.faultsUnrecoverable);
}

TEST(Watchdog, CleanRunPassesAndIsMetricNeutral)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Shadow;
    cfg.oram = smallConfig();
    std::vector<LlcMissRecord> trace = makeTrace("mcf", 1200, 3);

    SystemConfig watched = cfg;
    watched.watchdogInterval = 128;
    RunMetrics plain = runSystem(cfg, trace);
    RunMetrics m = runSystem(watched, trace);

    // The watchdog is read-only: identical simulation results.
    EXPECT_EQ(m.execTime, plain.execTime);
    EXPECT_EQ(m.requests, plain.requests);
    EXPECT_EQ(m.oram.pathReads, plain.oram.pathReads);
    EXPECT_EQ(m.oram.shadowsWritten, plain.oram.shadowsWritten);
}

TEST(Watchdog, EnforceThrowsOnCorruptedState)
{
    auto fx = makeShadowFixture(smallConfig());
    drive(fx->oram, 400, 1 << 10);
    EXPECT_NO_THROW(enforceInvariants(fx->oram, 400));

    auto &tree = const_cast<OramTree &>(fx->oram.tree());
    bool corrupted = false;
    for (BucketIndex b = 0; b < tree.numBuckets() && !corrupted; ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            if (tree.slot(b, s).isReal()) {
                tree.slot(b, s).leaf ^= 1;
                corrupted = true;
                break;
            }
        }
    }
    ASSERT_TRUE(corrupted);
    try {
        enforceInvariants(fx->oram, 400);
        FAIL() << "corrupted state passed the watchdog";
    } catch (const InvariantViolationError &e) {
        EXPECT_EQ(e.accessCount(), 400u);
        EXPECT_FALSE(e.retryable());
        EXPECT_NE(std::string(e.what()).find("invariant violation"),
                  std::string::npos);
    }
}
