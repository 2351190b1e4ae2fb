#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/Rng.hh"
#include "oram/Stash.hh"
#include "shadow/HotAddressCache.hh"

using namespace sboram;

namespace {

StashEntry
entry(Addr addr, BlockType type, std::uint32_t version = 0,
      LeafLabel leaf = 0)
{
    StashEntry e;
    e.addr = addr;
    e.type = type;
    e.version = version;
    e.leaf = leaf;
    return e;
}

} // namespace

TEST(Stash, InsertAndFind)
{
    Stash stash(10);
    EXPECT_TRUE(stash.insert(entry(5, BlockType::Real)));
    ASSERT_NE(stash.find(5), nullptr);
    EXPECT_EQ(stash.find(5)->type, BlockType::Real);
    EXPECT_EQ(stash.find(6), nullptr);
    EXPECT_EQ(stash.realCount(), 1u);
}

TEST(Stash, MergeRealWinsOverShadow)
{
    Stash stash(10);
    stash.insert(entry(5, BlockType::Shadow, 3));
    EXPECT_TRUE(stash.insert(entry(5, BlockType::Real, 3)));
    EXPECT_EQ(stash.find(5)->type, BlockType::Real);
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_EQ(stash.stats().mergesRealWins, 1u);
}

TEST(Stash, MergeShadowDiscardedWhenRealPresent)
{
    Stash stash(10);
    stash.insert(entry(5, BlockType::Real, 7));
    EXPECT_FALSE(stash.insert(entry(5, BlockType::Shadow, 3)));
    EXPECT_EQ(stash.find(5)->type, BlockType::Real);
    EXPECT_EQ(stash.find(5)->version, 7u);
}

TEST(Stash, MergeDuplicateShadowsCollapse)
{
    Stash stash(10);
    stash.insert(entry(5, BlockType::Shadow, 2));
    EXPECT_FALSE(stash.insert(entry(5, BlockType::Shadow, 2)));
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_EQ(stash.stats().mergesShadowDup, 1u);
}

TEST(Stash, ShadowsDoNotCountAgainstCapacity)
{
    Stash stash(4);
    stash.insert(entry(1, BlockType::Real));
    stash.insert(entry(2, BlockType::Shadow));
    stash.insert(entry(3, BlockType::Shadow));
    EXPECT_EQ(stash.realCount(), 1u);
    EXPECT_EQ(stash.shadowCount(), 2u);
    EXPECT_EQ(stash.stats().overflowEvents, 0u);
}

TEST(Stash, OldestShadowDisplacedWhenFull)
{
    Stash stash(3);
    stash.insert(entry(1, BlockType::Shadow));
    stash.insert(entry(2, BlockType::Shadow));
    stash.insert(entry(3, BlockType::Shadow));
    stash.insert(entry(4, BlockType::Real));
    // Capacity 3: the oldest shadow (addr 1) must have been evicted.
    EXPECT_EQ(stash.size(), 3u);
    EXPECT_EQ(stash.find(1), nullptr);
    EXPECT_NE(stash.find(4), nullptr);
}

TEST(Stash, OverflowCountedWhenRealsExceedCapacity)
{
    Stash stash(2);
    stash.insert(entry(1, BlockType::Real));
    stash.insert(entry(2, BlockType::Real));
    EXPECT_EQ(stash.stats().overflowEvents, 0u);
    stash.insert(entry(3, BlockType::Real));
    EXPECT_GE(stash.stats().overflowEvents, 1u);
    EXPECT_EQ(stash.stats().peakReal, 3u);
}

TEST(Stash, RemoveUpdatesCounts)
{
    Stash stash(10);
    stash.insert(entry(1, BlockType::Real));
    stash.insert(entry(2, BlockType::Shadow));
    stash.remove(1);
    EXPECT_EQ(stash.realCount(), 0u);
    EXPECT_EQ(stash.size(), 1u);
    stash.remove(2);
    EXPECT_EQ(stash.size(), 0u);
}

TEST(Stash, DropShadowOfLeavesRealAlone)
{
    Stash stash(10);
    stash.insert(entry(1, BlockType::Real));
    stash.dropShadowOf(1);
    EXPECT_NE(stash.find(1), nullptr);
    stash.insert(entry(2, BlockType::Shadow));
    stash.dropShadowOf(2);
    EXPECT_EQ(stash.find(2), nullptr);
}

TEST(Stash, EligibleRealsBeforeShadowsInSeqOrder)
{
    Stash stash(10);
    stash.insert(entry(10, BlockType::Shadow, 0, 0));
    stash.insert(entry(11, BlockType::Real, 0, 0));
    stash.insert(entry(12, BlockType::Real, 0, 0));
    auto eligible =
        stash.eligibleForLevel(0, [](LeafLabel) { return 5u; });
    ASSERT_EQ(eligible.size(), 3u);
    EXPECT_EQ(eligible[0], 11u);
    EXPECT_EQ(eligible[1], 12u);
    EXPECT_EQ(eligible[2], 10u);
}

TEST(Stash, EligibleFiltersByCommonLevel)
{
    Stash stash(10);
    stash.insert(entry(1, BlockType::Real, 0, /*leaf=*/0b0000));
    stash.insert(entry(2, BlockType::Real, 0, /*leaf=*/0b1000));
    auto eligible = stash.eligibleForLevel(
        2, [](LeafLabel leaf) { return leaf == 0 ? 4u : 1u; });
    ASSERT_EQ(eligible.size(), 1u);
    EXPECT_EQ(eligible[0], 1u);
}

namespace {

/** Common-prefix length of two leaf labels in a depth-L tree
 *  (mirrors OramTree::commonLevel without needing a tree). */
unsigned
commonLevel(LeafLabel a, LeafLabel b, unsigned leafLevel)
{
    const std::uint64_t diff = a ^ b;
    if (diff == 0)
        return leafLevel;
    return leafLevel - (64 - __builtin_clzll(diff));
}

/** Fill a stash with random real/shadow entries at random leaves. */
void
fillRandom(Stash &stash, Rng &rng, unsigned count, unsigned leafLevel)
{
    for (unsigned i = 0; i < count; ++i) {
        const BlockType type =
            rng.chance(0.4) ? BlockType::Shadow : BlockType::Real;
        stash.insert(entry(/*addr=*/1000 + i, type, 0,
                           rng.below(LeafLabel(1) << leafLevel)));
    }
}

} // namespace

TEST(Stash, PlanEvictionMatchesReferenceAtEveryLevel)
{
    // The one-pass plan must report exactly the per-level eligible
    // sequences the reference rescan produces, for random contents.
    const unsigned leafLevel = 6;
    Rng rng(2024);
    for (int round = 0; round < 50; ++round) {
        Stash stash(4096);
        fillRandom(stash, rng, 1 + rng.below(60), leafLevel);
        const LeafLabel evictLeaf =
            rng.below(LeafLabel(1) << leafLevel);
        auto fn = [&](LeafLabel leaf) {
            return commonLevel(leaf, evictLeaf, leafLevel);
        };

        Stash::EvictionPlan plan;
        stash.planEvictionInto(plan, fn);
        for (unsigned level = 0; level <= leafLevel; ++level) {
            SCOPED_TRACE("round " + std::to_string(round) +
                         " level " + std::to_string(level));
            EXPECT_EQ(plan.eligibleForLevel(level),
                      stash.eligibleForLevel(level, fn));
        }
    }
}

TEST(Stash, PlanEvictionConsumptionMatchesShrinkingStash)
{
    // A path write walks leaf -> root placing up to Z entries per
    // bucket and removing them from the stash.  The plan's placed
    // flags must reproduce re-running the reference against the
    // shrinking stash.
    const unsigned leafLevel = 5;
    const unsigned Z = 3;
    Rng rng(777);
    for (int round = 0; round < 30; ++round) {
        Stash stash(4096);
        fillRandom(stash, rng, 1 + rng.below(50), leafLevel);
        const LeafLabel evictLeaf =
            rng.below(LeafLabel(1) << leafLevel);
        auto fn = [&](LeafLabel leaf) {
            return commonLevel(leaf, evictLeaf, leafLevel);
        };

        Stash::EvictionPlan plan;
        stash.planEvictionInto(plan, fn);
        for (int level = static_cast<int>(leafLevel); level >= 0;
             --level) {
            // Reference: first Z of a fresh rescan of the live stash.
            std::vector<Addr> want = stash.eligibleForLevel(
                static_cast<unsigned>(level), fn);
            if (want.size() > Z)
                want.resize(Z);

            std::vector<Addr> got;
            plan.forEachEligible(
                static_cast<unsigned>(level),
                [&](Stash::PlanEntry &cand) {
                    if (got.size() >= Z)
                        return false;
                    got.push_back(cand.addr);
                    cand.placed = true;
                    return true;
                });

            SCOPED_TRACE("round " + std::to_string(round) +
                         " level " + std::to_string(level));
            EXPECT_EQ(got, want);
            for (Addr a : got)
                stash.remove(a);
        }
    }
}

namespace {

/** Hotness oracle backed by a small Hot Address Cache, so touches
 *  both raise counts and silently drop LFU-evicted ones to zero. */
class CacheOracle : public DuplicationPolicy
{
  public:
    std::optional<ShadowChoice>
    selectShadow(unsigned level) override
    {
        (void)level;
        return std::nullopt;
    }
    std::uint32_t
    hotnessOf(Addr addr) const override
    {
        return cache.count(addr);
    }

    HotAddressCache cache{16, 4};
};

/**
 * Reference stash: the merge rules plus displacement by a full strict
 * (hotness, seq) scan over every shadow, with no index.
 */
struct RefStash
{
    struct Entry
    {
        BlockType type = BlockType::Dummy;
        std::uint64_t seq = 0;
    };

    unsigned capacity;
    const CacheOracle &oracle;
    std::map<Addr, Entry> entries;
    std::uint64_t nextSeq = 0;

    /** The strict (hotness, seq) minimum shadow, or kInvalidAddr. */
    Addr
    victim() const
    {
        Addr best = kInvalidAddr;
        std::uint32_t bestHot = 0;
        std::uint64_t bestSeq = 0;
        for (const auto &[addr, e] : entries) {
            if (e.type != BlockType::Shadow)
                continue;
            const std::uint32_t hot = oracle.hotnessOf(addr);
            if (best == kInvalidAddr || hot < bestHot ||
                (hot == bestHot && e.seq < bestSeq)) {
                best = addr;
                bestHot = hot;
                bestSeq = e.seq;
            }
        }
        return best;
    }

    /** Apply Stash::insert's rules; returns the displaced addresses. */
    std::vector<Addr>
    insert(Addr addr, BlockType type)
    {
        const std::uint64_t seq = nextSeq++;
        std::vector<Addr> displaced;
        auto it = entries.find(addr);
        if (it != entries.end()) {
            if (type == BlockType::Real)
                it->second = Entry{type, seq};  // Real replaces shadow.
            return displaced;
        }
        entries[addr] = Entry{type, seq};
        while (entries.size() > capacity) {
            const Addr v = victim();
            if (v == kInvalidAddr)
                break;
            entries.erase(v);
            displaced.push_back(v);
        }
        return displaced;
    }
};

/** Leaf depth of the entries VictimIndexMatchesFullScan inserts. */
constexpr unsigned kVictimLeafLevel = 6;

/** The leaf VictimIndexMatchesFullScan gives an address. */
LeafLabel
leafOf(Addr addr)
{
    return addr % (LeafLabel(1) << kVictimLeafLevel);
}

/** Expect the stash to hold exactly the reference's entries; forEach
 *  to yield every real, then every shadow, each in ascending seq;
 *  the shadow list to be in seq order; and an eviction plan towards
 *  @p evictLeaf to match the reference rescan at every level. */
void
expectSameContents(const Stash &stash, const RefStash &ref,
                   LeafLabel evictLeaf)
{
    std::map<Addr, RefStash::Entry> got;
    std::vector<const StashEntry *> order;
    stash.forEach([&](const StashEntry &e) {
        got[e.addr] = RefStash::Entry{e.type, e.seq};
        order.push_back(&e);
    });
    ASSERT_EQ(order.size(), stash.size());
    auto isReal = [](const StashEntry *e) { return !e->isShadow(); };
    EXPECT_TRUE(std::is_partitioned(order.begin(), order.end(), isReal))
        << "a real after a shadow";
    EXPECT_EQ(std::uint64_t(std::partition_point(order.begin(),
                                                 order.end(), isReal) -
                            order.begin()),
              stash.realCount());
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i - 1]->isShadow() == order[i]->isShadow()) {
            EXPECT_LT(order[i - 1]->seq, order[i]->seq)
                << "addr " << order[i]->addr;
        }
    }
    ASSERT_EQ(got.size(), ref.entries.size());
    for (const auto &[addr, e] : ref.entries) {
        auto it = got.find(addr);
        ASSERT_NE(it, got.end()) << "addr " << addr;
        EXPECT_EQ(it->second.type, e.type) << "addr " << addr;
        EXPECT_EQ(it->second.seq, e.seq) << "addr " << addr;
    }
    std::vector<std::uint64_t> shadowSeqs;
    stash.forEachShadow([&](const StashEntry &e) {
        EXPECT_TRUE(e.isShadow());
        shadowSeqs.push_back(e.seq);
    });
    EXPECT_TRUE(std::is_sorted(shadowSeqs.begin(), shadowSeqs.end()));
    EXPECT_EQ(shadowSeqs.size(), stash.shadowCount());

    auto fn = [&](LeafLabel leaf) {
        return commonLevel(leaf, evictLeaf, kVictimLeafLevel);
    };
    Stash::EvictionPlan plan;
    stash.planEvictionInto(plan, fn);
    for (unsigned level = 0; level <= kVictimLeafLevel; ++level) {
        EXPECT_EQ(plan.eligibleForLevel(level),
                  stash.eligibleForLevel(level, fn))
            << "level " << level;
    }
}

} // namespace

TEST(Stash, VictimIndexMatchesFullScan)
{
    // Random inserts (new, real-wins, shadow-dup merges), removes,
    // dropShadowOf, hot-cache touches that force LFU evictions, and
    // save/load round trips.  After every step the indexed victim
    // must be the reference's full-scan (hotness, seq) minimum, every
    // displacement must evict exactly the reference's victim, the
    // seq lists must hold the stash in (class, seq) order, and an
    // eviction plan must match the reference rescan.  A restored
    // stash must re-save to the same bytes.
    constexpr unsigned kCapacity = 12;
    constexpr Addr kAddrs = 40;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        CacheOracle oracle;
        auto stash = std::make_unique<Stash>(kCapacity);
        stash->setHotnessOracle(&oracle);
        RefStash ref{kCapacity, oracle, {}, 0};
        std::uint64_t displacements = 0;

        for (int step = 0; step < 3000; ++step) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                         std::to_string(step));
            const Addr addr = rng.below(kAddrs);
            const std::uint64_t op = rng.below(100);
            if (op < 50) {
                const StashEntry *cur = stash->find(addr);
                BlockType type = rng.chance(0.75) ? BlockType::Shadow
                                                  : BlockType::Real;
                if (cur && cur->type == BlockType::Real)
                    type = BlockType::Shadow;  // Never two reals.
                std::map<Addr, RefStash::Entry> before;
                stash->forEach([&](const StashEntry &e) {
                    before[e.addr] = RefStash::Entry{e.type, e.seq};
                });
                const std::vector<Addr> want = ref.insert(addr, type);
                stash->insert(entry(addr, type, 0, leafOf(addr)));
                std::vector<Addr> got;
                for (const auto &kv : before)
                    if (stash->find(kv.first) == nullptr)
                        got.push_back(kv.first);
                if (stash->find(addr) == nullptr)
                    got.push_back(addr);
                std::vector<Addr> wantSorted = want;
                std::sort(wantSorted.begin(), wantSorted.end());
                std::sort(got.begin(), got.end());
                EXPECT_EQ(got, wantSorted);
                displacements += want.size();
            } else if (op < 60) {
                if (stash->find(addr) != nullptr) {
                    stash->remove(addr);
                    ref.entries.erase(addr);
                }
            } else if (op < 68) {
                stash->dropShadowOf(addr);
                auto it = ref.entries.find(addr);
                if (it != ref.entries.end() &&
                    it->second.type == BlockType::Shadow)
                    ref.entries.erase(it);
            } else if (op < 97) {
                // The owner's contract: hotnessChanged() after every
                // change to the oracle.
                oracle.cache.touch(addr);
                stash->hotnessChanged();
            } else {
                ckpt::Serializer out;
                stash->saveState(out);
                ckpt::Deserializer in(out.buffer().data(),
                                      out.buffer().size());
                stash = std::make_unique<Stash>(kCapacity);
                stash->setHotnessOracle(&oracle);
                stash->loadState(in);
                ckpt::Serializer again;
                stash->saveState(again);
                EXPECT_EQ(again.buffer(), out.buffer());
            }

            const StashEntry *v = stash->displacementVictim();
            const Addr want = ref.victim();
            EXPECT_EQ(v ? v->addr : kInvalidAddr, want);
            expectSameContents(*stash, ref,
                               step % (LeafLabel(1) << kVictimLeafLevel));
            if (HasFailure())
                return;
        }
        // The run must actually exercise displacement.
        EXPECT_GT(displacements, 100u);
    }
}

namespace {

/** What FlatIndexMatchesMapModel expects the stash to hold for one
 *  address. */
struct ModelEntry
{
    BlockType type = BlockType::Dummy;
    std::uint64_t seq = 0;
    std::uint64_t word = 0;  ///< The payload's one word.
};

/**
 * Reference stash on a std::map: the merge rules, oldest-first
 * displacement (no hotness oracle) and the occupancy counters.
 */
struct MapModel
{
    unsigned capacity;
    std::map<Addr, ModelEntry> entries;
    std::uint64_t nextSeq = 0;
    std::uint64_t peakReal = 0;
    std::uint64_t overflowEvents = 0;

    std::uint64_t
    realCount() const
    {
        std::uint64_t n = 0;
        for (const auto &kv : entries)
            n += kv.second.type == BlockType::Real;
        return n;
    }

    void
    trackOccupancy()
    {
        const std::uint64_t reals = realCount();
        peakReal = std::max(peakReal, reals);
        if (reals > capacity)
            ++overflowEvents;
    }

    void
    insert(Addr addr, BlockType type, std::uint64_t word)
    {
        const std::uint64_t seq = nextSeq++;
        auto it = entries.find(addr);
        if (it != entries.end()) {
            if (type == BlockType::Real) {
                it->second = ModelEntry{type, seq, word};
                trackOccupancy();
            }
            return;
        }
        entries[addr] = ModelEntry{type, seq, word};
        while (entries.size() > capacity) {
            auto victim = entries.end();
            for (auto e = entries.begin(); e != entries.end(); ++e) {
                if (e->second.type == BlockType::Shadow &&
                    (victim == entries.end() ||
                     e->second.seq < victim->second.seq))
                    victim = e;
            }
            if (victim == entries.end())
                break;
            entries.erase(victim);
        }
        trackOccupancy();
    }
};

/** Addresses whose index home (at @p bits) is @p home: the first
 *  @p count found scanning up from @p from. */
std::vector<Addr>
addrsWithHome(std::size_t home, unsigned bits, std::size_t count,
              Addr from)
{
    std::vector<Addr> out;
    for (Addr a = from; out.size() < count; ++a) {
        if (Stash::indexHome(a, bits) == home)
            out.push_back(a);
    }
    return out;
}

} // namespace

TEST(Stash, FlatIndexMatchesMapModel)
{
    // The slab + open-addressed index against a std::map model under
    // random insert (new, real-wins and shadow-dup merges), remove,
    // dropShadowOf and find.  The address pool is built to collide in
    // the index: two clusters share one home slot each, and a third
    // sits at the last slot so its probe run wraps to slot 0, which
    // exercises backward-shift delete across the wrap.  One phase
    // pushes reals past the capacity so the slab and the index grow;
    // a save/load mid-sequence must re-save to identical bytes and
    // the restored stash must carry on matching the model.
    constexpr unsigned kCapacity = 6;
    // 2 * (capacity + 1) = 14 rounds up to a 16-slot index.
    constexpr unsigned kBits = 4;
    std::vector<Addr> pool;
    for (std::size_t home : {std::size_t(3), std::size_t(9),
                             std::size_t(15)}) {
        for (Addr a : addrsWithHome(home, kBits, 6, 1))
            pool.push_back(a);
    }
    for (Addr a = 1; pool.size() < 30; ++a) {
        if (std::find(pool.begin(), pool.end(), a) == pool.end())
            pool.push_back(a);
    }

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        auto stash = std::make_unique<Stash>(kCapacity);
        ASSERT_EQ(stash->slabSlots(), kCapacity + 1u);
        MapModel model{kCapacity, {}, 0, 0, 0};
        bool grew = false;
        bool reloaded = false;

        for (int step = 0; step < 4000; ++step) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                         std::to_string(step));
            // Steps 1500..1999 favour reals and never remove, so the
            // reals overflow the capacity.
            const bool overflowPhase = step >= 1500 && step < 2000;
            const Addr addr = pool[rng.below(pool.size())];
            const std::uint64_t op = rng.below(100);
            if (op < 55 || (overflowPhase && op < 90)) {
                const StashEntry *cur = stash->find(addr);
                BlockType type =
                    rng.chance(overflowPhase ? 0.8 : 0.35)
                        ? BlockType::Real
                        : BlockType::Shadow;
                if (cur && cur->type == BlockType::Real)
                    type = BlockType::Shadow;  // Never two reals.
                const std::uint64_t word = rng.next();
                StashEntry e = entry(addr, type, /*version=*/addr % 5);
                e.payload = {word};
                stash->insert(std::move(e));
                model.insert(addr, type, word);
            } else if (op < 75 && !overflowPhase) {
                if (stash->find(addr) != nullptr) {
                    stash->remove(addr);
                    model.entries.erase(addr);
                }
            } else if (op < 90) {
                stash->dropShadowOf(addr);
                auto it = model.entries.find(addr);
                if (it != model.entries.end() &&
                    it->second.type == BlockType::Shadow)
                    model.entries.erase(it);
            }
            // Reload at fixed steps (1999 holds the overflowed
            // stash, which must grow a fresh slab on load) and now
            // and then at random.
            if (step == 1000 || step == 1999 || step == 3000 ||
                (op >= 90 && rng.below(10) == 0)) {
                ckpt::Serializer out;
                stash->saveState(out);
                ckpt::Deserializer in(out.buffer().data(),
                                      out.buffer().size());
                stash = std::make_unique<Stash>(kCapacity);
                stash->loadState(in);
                ckpt::Serializer again;
                stash->saveState(again);
                EXPECT_EQ(again.buffer(), out.buffer());
                reloaded = true;
            }
            grew = grew || stash->slabSlots() > kCapacity + 1u;

            // Every pool address, present or not, finds what the
            // model holds.
            for (Addr a : pool) {
                const StashEntry *got = stash->find(a);
                auto want = model.entries.find(a);
                ASSERT_EQ(got != nullptr, want != model.entries.end())
                    << "addr " << a;
                if (!got)
                    continue;
                EXPECT_EQ(got->addr, a);
                EXPECT_EQ(got->type, want->second.type) << "addr " << a;
                EXPECT_EQ(got->seq, want->second.seq) << "addr " << a;
                ASSERT_EQ(got->payload.size(), 1u) << "addr " << a;
                EXPECT_EQ(got->payload[0], want->second.word)
                    << "addr " << a;
            }
            ASSERT_EQ(stash->size(), model.entries.size());
            EXPECT_EQ(stash->realCount(), model.realCount());
            EXPECT_EQ(stash->stats().peakReal, model.peakReal);
            EXPECT_EQ(stash->stats().overflowEvents,
                      model.overflowEvents);
            // Outside an overflow the slab stays at capacity + 1.
            if (stash->stats().overflowEvents == 0) {
                EXPECT_EQ(stash->slabSlots(), kCapacity + 1u);
            }
            if (HasFailure())
                return;
        }
        EXPECT_TRUE(grew) << "the overflow phase never grew the slab";
        EXPECT_TRUE(reloaded);
    }
}
