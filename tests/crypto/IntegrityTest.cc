#include <gtest/gtest.h>

#include <cstdint>

#include "../oram/OramTestUtil.hh"
#include "common/Rng.hh"
#include "crypto/Otp.hh"

using namespace sboram;
using namespace sboram::test;

TEST(Integrity, TagVerifiesCleanCiphertext)
{
    OtpCodec codec;
    CipherText ct = codec.encrypt({1, 2, 3, 4});
    EXPECT_TRUE(codec.verify(ct));
    std::vector<std::uint64_t> plain;
    EXPECT_TRUE(codec.verifyDecrypt(ct, plain));
    EXPECT_EQ(plain, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(Integrity, AnyLaneFlipBreaksTag)
{
    OtpCodec codec;
    CipherText ct = codec.encrypt({5, 6, 7, 8});
    for (std::size_t lane = 0; lane < ct.lanes.size(); ++lane) {
        CipherText tampered = ct;
        tampered.lanes[lane] ^= 1ULL << (lane * 13 % 64);
        EXPECT_FALSE(codec.verify(tampered)) << "lane " << lane;
    }
}

TEST(Integrity, NonceSubstitutionBreaksTag)
{
    OtpCodec codec;
    CipherText a = codec.encrypt({1, 1});
    CipherText b = codec.encrypt({2, 2});
    // Replay attack: splice a's lanes under b's nonce.
    CipherText spliced = b;
    spliced.lanes = a.lanes;
    EXPECT_FALSE(codec.verify(spliced));
}

TEST(Integrity, TamperedTreeSlotIsDetectedOnPathRead)
{
    OramFixture fx(smallConfig());
    // Locate an occupied, off-stash slot and corrupt it.
    auto &tree =
        const_cast<OramTree &>(fx.oram.tree());
    bool corrupted = false;
    std::uint64_t corruptedSlot = 0;
    Addr victim = kInvalidAddr;
    for (BucketIndex b = 0; b < tree.numBuckets() && !corrupted;
         ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            const Slot &slot = tree.slot(b, s);
            if (slot.isReal()) {
                corruptedSlot = tree.slotIndex(b, s);
                victim = slot.addr;
                corrupted = true;
                break;
            }
        }
    }
    ASSERT_TRUE(corrupted);
    tree.cipherRef(corruptedSlot).lanes[0] ^= 0xdeadULL;

    EXPECT_DEATH(
        {
            // Touching the victim forces a path read over the
            // corrupted slot.
            fx.oram.access(victim, Op::Read, 0);
        },
        "integrity violation");
}

// ---------------------------------------------------------------------
// Path-read verification under single-slot corruption.
//
// A path read authenticates every slot it consumes or copies into the
// stash.  These tests corrupt exactly one of those ciphertexts, just
// before the read that decrypts it, at chosen positions of the read's
// decrypted set (first, last of the first lock-step group, first of
// the second group, middle, tail), on eviction and on request paths,
// real and shadow.  Each run must count exactly one detection and one
// recovery, and every address must still read back its last write.
// ---------------------------------------------------------------------

namespace {

/** Lock-step width of the codec's batched tag chains. */
constexpr std::size_t kGroup = OtpCodec::kTagChains;

/** One slot a path read decrypts, as seen when the read starts. */
struct ReadSlot
{
    std::uint64_t slotIdx;
    Addr addr;
    bool shadow;
    /** A single corruption of this slot heals: shadows are dropped,
     *  reals have a same-version shadow in the stash or shallower on
     *  the path. */
    bool recoverable;
};

/** One path read: the slots it decrypts, root first. */
struct ReadRecord
{
    Addr want = kInvalidAddr;
    bool evict = false;
    std::vector<ReadSlot> slots;
};

/**
 * Path-access hook that records each read's valid slots and, on the
 * armed read, corrupts one ciphertext before the read proceeds
 * (onPathAccess fires ahead of the read's DRAM and crypto work).
 */
class CorruptingSink : public TraceSink
{
  public:
    explicit CorruptingSink(TinyOram &oram) : _oram(oram) {}

    Addr want = kInvalidAddr;
    std::vector<ReadRecord> reads;
    std::size_t armedRead = SIZE_MAX;
    std::uint64_t armedSlot = 0;

    void
    onPathAccess(LeafLabel leaf, bool isWrite) override
    {
        if (isWrite) {
            // An eviction writes back the path it has just read.
            reads.back().evict = true;
            return;
        }
        ReadRecord rec;
        rec.want = want;
        const OramTree &tree = _oram.tree();
        const unsigned leafLevel = _oram.geometry().leafLevel;
        for (unsigned level = 0; level <= leafLevel; ++level) {
            const BucketIndex b = tree.bucketOnPath(leaf, level);
            for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
                const Slot &slot = tree.slot(b, s);
                if (slot.valid())
                    rec.slots.push_back(ReadSlot{
                        tree.slotIndex(b, s), slot.addr, slot.isShadow(),
                        slot.isShadow() ||
                            hasShadowCopy(leaf, level, slot)});
            }
        }
        reads.push_back(std::move(rec));
        if (reads.size() - 1 == armedRead) {
            auto &t = const_cast<OramTree &>(tree);
            t.cipherRef(armedSlot).lanes[1] ^= 0x5a5aULL;
        }
    }

    /** Whether a read was a request or an eviction is known only once
     *  the write follows, so the records hold every valid slot until
     *  the run ends.  Drop the slots a request read neither consumes
     *  nor copies: reals of other addresses. */
    void
    classify()
    {
        for (ReadRecord &rec : reads) {
            if (rec.evict)
                continue;
            std::vector<ReadSlot> kept;
            for (const ReadSlot &rs : rec.slots)
                if (rs.shadow || rs.addr == rec.want)
                    kept.push_back(rs);
            rec.slots = std::move(kept);
        }
    }

  private:
    bool
    hasShadowCopy(LeafLabel leaf, unsigned level, const Slot &real) const
    {
        if (const StashEntry *sh = _oram.stash().find(real.addr);
            sh && sh->isShadow() && sh->version == real.version)
            return true;
        const OramTree &tree = _oram.tree();
        for (unsigned lvl = 0; lvl < level; ++lvl) {
            const BucketIndex b = tree.bucketOnPath(leaf, lvl);
            for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
                const Slot &c = tree.slot(b, s);
                if (c.isShadow() && c.addr == real.addr &&
                    c.version == real.version)
                    return true;
            }
        }
        return false;
    }

    TinyOram &_oram;
};

struct CursorRun
{
    std::vector<ReadRecord> reads;
    OramStats stats;
    /** Path reads [first, last) of the access during which
     *  faultsDetected first moved (empty when it never did). */
    std::size_t detectedFirst = 0;
    std::size_t detectedLast = 0;
    /** Addresses whose payload did not read back its last write. */
    int oracleMismatches = 0;
};

/**
 * Run a fixed read/write mix over a payload-mode shadow ORAM,
 * corrupting slot @p slotIdx as read number @p read starts
 * (SIZE_MAX: clean run).
 */
CursorRun
runCorrupting(std::size_t read, std::uint64_t slotIdx)
{
    OramConfig cfg = smallConfig();
    cfg.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    ShadowConfig scfg;
    scfg.mode = ShadowMode::HdOnly;
    auto fx = makeShadowFixture(cfg, scfg);
    TinyOram &oram = fx->oram;
    CorruptingSink sink(oram);
    sink.armedRead = read;
    sink.armedSlot = slotIdx;
    oram.setTraceSink(&sink);

    const std::uint64_t blocks = cfg.dataBlocks;
    std::vector<std::vector<std::uint64_t>> expected(blocks);
    for (Addr a = 0; a < blocks; ++a)
        expected[a] = oram.peekPayload(a);

    CursorRun run;
    Rng rng(2024);
    Cycles t = 0;
    for (int i = 0; i < 1500; ++i) {
        const std::size_t readsBefore = sink.reads.size();
        // A small hot set keeps shadows live on the paths read.
        const Addr addr =
            rng.chance(0.6) ? rng.below(48) : rng.below(blocks);
        sink.want = addr;
        if (rng.chance(0.3)) {
            std::vector<std::uint64_t> data(cfg.blockBytes / 8);
            for (std::size_t w = 0; w < data.size(); ++w)
                data[w] = rng.next();
            t = oram.access(addr, Op::Write, t + 150, &data).completeAt;
            expected[addr] = data;
        } else {
            t = oram.access(addr, Op::Read, t + 150).completeAt;
        }
        if (run.detectedLast == 0 && oram.stats().faultsDetected > 0) {
            run.detectedFirst = readsBefore;
            run.detectedLast = sink.reads.size();
        }
    }
    for (Addr a = 0; a < blocks; ++a)
        if (oram.peekPayload(a) != expected[a])
            ++run.oracleMismatches;
    EXPECT_EQ(oram.spareStoreSize(), 0u);
    oram.setTraceSink(nullptr);
    sink.classify();
    run.reads = std::move(sink.reads);
    run.stats = oram.stats();
    return run;
}

/** A corruption target: read number and slot. */
struct CursorTarget
{
    std::size_t read;
    std::uint64_t slotIdx;
    const char *what;
};

/**
 * First read of kind @p evict whose decrypted set has at least
 * 2*kGroup+1 slots and a recoverable slot of kind @p shadow at the
 * position @p pos picks.
 */
bool
findTarget(const std::vector<ReadRecord> &reads, bool evict,
           bool shadow, std::size_t (*pos)(std::size_t),
           const char *what, CursorTarget &out)
{
    for (std::size_t r = 0; r < reads.size(); ++r) {
        const ReadRecord &rec = reads[r];
        if (rec.evict != evict || rec.slots.size() < 2 * kGroup + 1 ||
            rec.slots.size() % kGroup == 0)
            continue;
        const ReadSlot &rs = rec.slots[pos(rec.slots.size())];
        if (rs.shadow == shadow && rs.recoverable) {
            out = CursorTarget{r, rs.slotIdx, what};
            return true;
        }
    }
    return false;
}

void
expectOneHealedFault(const CursorTarget &target)
{
    SCOPED_TRACE(target.what);
    const CursorRun run = runCorrupting(target.read, target.slotIdx);
    // Detected by the access that read the corrupted slot.
    EXPECT_LE(run.detectedFirst, target.read);
    EXPECT_LT(target.read, run.detectedLast);
    EXPECT_EQ(run.stats.faultsDetected, 1u);
    EXPECT_EQ(run.stats.faultsRecovered, 1u);
    EXPECT_EQ(run.stats.faultsUnrecoverable, 0u);
    EXPECT_EQ(run.oracleMismatches, 0);
}

} // namespace

TEST(Integrity, CleanRunHasNoFaultsAndReadsBack)
{
    const CursorRun run = runCorrupting(SIZE_MAX, 0);
    EXPECT_EQ(run.stats.faultsDetected, 0u);
    EXPECT_EQ(run.oracleMismatches, 0);
    EXPECT_GT(run.stats.shadowsWritten, 0u);
}

TEST(Integrity, EvictionPathCorruptionAtEveryBatchPosition)
{
    const CursorRun clean = runCorrupting(SIZE_MAX, 0);
    using Pos = std::size_t (*)(std::size_t);
    const struct
    {
        Pos pos;
        const char *name;
    } positions[] = {
        {[](std::size_t) -> std::size_t { return 0; }, "first"},
        {[](std::size_t) -> std::size_t { return kGroup - 1; },
         "end of first group"},
        {[](std::size_t) -> std::size_t { return kGroup; },
         "start of second group"},
        {[](std::size_t n) { return n / 2; }, "middle"},
        {[](std::size_t n) { return n - 1; }, "tail"},
    };
    int tested = 0;
    bool sawReal = false, sawShadow = false;
    for (const auto &p : positions) {
        bool hit = false;
        for (bool shadow : {false, true}) {
            CursorTarget target{};
            if (!findTarget(clean.reads, /*evict=*/true, shadow, p.pos,
                            p.name, target))
                continue;
            ++tested;
            hit = true;
            (shadow ? sawShadow : sawReal) = true;
            SCOPED_TRACE(shadow ? "shadow slot" : "real slot");
            expectOneHealedFault(target);
        }
        EXPECT_TRUE(hit) << "no eviction read to corrupt at " << p.name;
    }
    EXPECT_TRUE(sawReal);
    EXPECT_TRUE(sawShadow);
    EXPECT_GE(tested, 7);
}

TEST(Integrity, RequestPathCopiedShadowCorruption)
{
    const CursorRun clean = runCorrupting(SIZE_MAX, 0);
    // A request read that copies at least one shadow of another
    // address: corrupt that copied shadow, and separately the
    // consumed real when it has a healthy copy.
    bool copiedShadow = false, consumedReal = false;
    for (std::size_t r = 0; r < clean.reads.size(); ++r) {
        const ReadRecord &rec = clean.reads[r];
        if (rec.evict || rec.slots.size() < 2)
            continue;
        for (const ReadSlot &rs : rec.slots) {
            if (!copiedShadow && rs.shadow) {
                copiedShadow = true;
                expectOneHealedFault(
                    CursorTarget{r, rs.slotIdx, "copied shadow"});
            }
            if (!consumedReal && !rs.shadow && rs.recoverable) {
                consumedReal = true;
                expectOneHealedFault(
                    CursorTarget{r, rs.slotIdx, "consumed real"});
            }
        }
    }
    EXPECT_TRUE(copiedShadow);
    EXPECT_TRUE(consumedReal);
}
