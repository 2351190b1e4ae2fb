/**
 * Tier-1 work-counter gate for the duplication bookkeeping.
 *
 * TinyOram runs a fixed mcf miss trace under shadow-rd and shadow-hd
 * through a counting decorator around the real ShadowPolicy (the
 * same shape as perfbench's ProbePolicy).  Two things are pinned:
 *
 *  - work: the stash's displacement-victim choice may probe the hot
 *    address cache (hotnessOf) at most kMaxHotnessPerAccess times per
 *    access on average.  A full (hotness, seq) scan per displacement
 *    costs 3,038 (rd) and 2,479 (hd) probes per access on this trace.
 *  - behaviour: the sequence of selectShadow results and the
 *    controller's OramStats/StashStats hash to fixed digests (taken
 *    from the full-scan implementation), so an indexing change that
 *    alters any choice fails here.
 *  - storage: the stash slab never grows past its capacity + 1
 *    slots, so no stash insert or displacement on this trace
 *    allocates (the slab only grows on a real overflow).
 *
 * Both are exact counts, independent of the machine and its load.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ckpt/Serde.hh"
#include "mem/DramModel.hh"
#include "oram/TinyOram.hh"
#include "shadow/ShadowPolicy.hh"
#include "sim/System.hh"

using namespace sboram;

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kMisses = 6000;
constexpr unsigned kStashCapacity = 200;
constexpr double kMaxHotnessPerAccess = 250.0;

std::uint64_t
fnv(std::uint64_t h, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Forwards every hook to the real policy, counting hotness probes
 *  and hashing every selectShadow answer. */
class CountingPolicy : public DuplicationPolicy
{
  public:
    explicit CountingPolicy(std::unique_ptr<DuplicationPolicy> inner)
        : _inner(std::move(inner))
    {
    }

    void beginPathWrite(LeafLabel leaf) override
    {
        _inner->beginPathWrite(leaf);
    }
    void onBlockPlaced(const PlacedBlock &placed) override
    {
        _inner->onBlockPlaced(placed);
    }
    void
    offerStashShadow(Addr addr, LeafLabel leaf, std::uint32_t version,
                     unsigned rearLevel, unsigned maxLevel) override
    {
        _inner->offerStashShadow(addr, leaf, version, rearLevel,
                                 maxLevel);
    }
    std::optional<ShadowChoice>
    selectShadow(unsigned level) override
    {
        std::optional<ShadowChoice> c = _inner->selectShadow(level);
        ++selects;
        selectDigest = fnv(selectDigest, level);
        if (c) {
            selectDigest = fnv(selectDigest, c->addr);
            selectDigest = fnv(selectDigest, c->leaf);
            selectDigest = fnv(selectDigest, c->version);
            selectDigest = fnv(selectDigest, c->releaseStashCopy);
        } else {
            selectDigest = fnv(selectDigest, ~std::uint64_t(0));
        }
        return c;
    }
    void endPathWrite() override { _inner->endPathWrite(); }
    void onLlcMiss(Addr addr) override { _inner->onLlcMiss(addr); }
    void onRequestClassified(bool wasDummy) override
    {
        _inner->onRequestClassified(wasDummy);
    }
    unsigned partitionLevel() const override
    {
        return _inner->partitionLevel();
    }
    std::uint32_t
    hotnessOf(Addr addr) const override
    {
        ++hotnessCalls;
        return _inner->hotnessOf(addr);
    }

    mutable std::uint64_t hotnessCalls = 0;
    std::uint64_t selects = 0;
    std::uint64_t selectDigest = kFnvBasis;

  private:
    std::unique_ptr<DuplicationPolicy> _inner;
};

struct GateResult
{
    std::uint64_t accesses = 0;
    std::uint64_t hotnessCalls = 0;
    std::uint64_t selects = 0;
    std::uint64_t selectDigest = 0;
    std::uint64_t statsDigest = 0;
    std::size_t slabSlots = 0;
};

GateResult
runGate(ShadowMode mode)
{
    OramConfig cfg;
    cfg.dataBlocks = std::uint64_t(1) << 14;
    cfg.posMapMode = PosMapMode::OnChip;
    cfg.stashCapacity = kStashCapacity;
    cfg.seed = 7;
    ShadowConfig scfg;
    scfg.mode = mode;

    DramModel dram(DramTiming::ddr3_1333(), DramGeometry{});
    auto counting = std::make_unique<CountingPolicy>(
        std::make_unique<ShadowPolicy>(scfg, cfg.deriveLevels()));
    CountingPolicy *probe = counting.get();
    TinyOram oram(cfg, dram, std::move(counting));

    Cycles t = 0;
    for (const LlcMissRecord &rec : makeTrace("mcf", kMisses, 7)) {
        const AccessResult res =
            oram.access(rec.addr % cfg.dataBlocks,
                        rec.isWrite ? Op::Write : Op::Read, t);
        t = res.completeAt;
    }

    ckpt::Serializer out;
    OramStats::serde(oram.stats(), out);
    const StashStats &s = oram.stash().stats();
    for (std::uint64_t v : {s.peakReal, s.overflowEvents,
                            s.mergesRealWins, s.mergesShadowDup,
                            oram.stash().size(),
                            oram.stash().shadowCount()})
        out.u64(v);
    std::uint64_t statsDigest = kFnvBasis;
    for (std::uint8_t b : out.buffer())
        statsDigest = fnv(statsDigest, b);

    GateResult r;
    r.accesses = oram.stats().requests;
    r.hotnessCalls = probe->hotnessCalls;
    r.selects = probe->selects;
    r.selectDigest = probe->selectDigest;
    r.statsDigest = statsDigest;
    r.slabSlots = oram.stash().slabSlots();
    return r;
}

void
report(const char *name, const GateResult &r)
{
    std::printf("%s: accesses=%llu hotnessOf=%llu (%.1f/access) "
                "selects=%llu selectDigest=%016llx "
                "statsDigest=%016llx slabSlots=%zu\n",
                name, static_cast<unsigned long long>(r.accesses),
                static_cast<unsigned long long>(r.hotnessCalls),
                static_cast<double>(r.hotnessCalls) /
                    static_cast<double>(r.accesses),
                static_cast<unsigned long long>(r.selects),
                static_cast<unsigned long long>(r.selectDigest),
                static_cast<unsigned long long>(r.statsDigest),
                r.slabSlots);
}

} // namespace

TEST(ShadowWorkGate, RdOnly)
{
    const GateResult r = runGate(ShadowMode::RdOnly);
    report("rd", r);
    ASSERT_EQ(r.accesses, kMisses);
    EXPECT_LE(static_cast<double>(r.hotnessCalls) /
                  static_cast<double>(r.accesses),
              kMaxHotnessPerAccess);
    EXPECT_EQ(r.selects, 42368u);
    EXPECT_EQ(r.selectDigest, 0xae23b17cbb4f8599ULL);
    EXPECT_EQ(r.statsDigest, 0xb91c1b7ebc658e00ULL);
    EXPECT_EQ(r.slabSlots, kStashCapacity + 1u);
}

TEST(ShadowWorkGate, HdOnly)
{
    const GateResult r = runGate(ShadowMode::HdOnly);
    report("hd", r);
    ASSERT_EQ(r.accesses, kMisses);
    EXPECT_LE(static_cast<double>(r.hotnessCalls) /
                  static_cast<double>(r.accesses),
              kMaxHotnessPerAccess);
    EXPECT_EQ(r.selects, 40001u);
    EXPECT_EQ(r.selectDigest, 0xb38d2c6207011436ULL);
    EXPECT_EQ(r.statsDigest, 0xfce34337a4b64420ULL);
    EXPECT_EQ(r.slabSlots, kStashCapacity + 1u);
}
