#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/Rng.hh"
#include "shadow/DupQueues.hh"

using namespace sboram;

namespace {

DupCandidate
cand(Addr addr, unsigned level, std::uint32_t hot, std::uint64_t seq)
{
    DupCandidate c;
    c.addr = addr;
    c.rearLevel = level;
    c.maxLevel = level;
    c.hotness = hot;
    c.seq = seq;
    return c;
}

} // namespace

TEST(DupQueue, RdOrderIsDeepestFirst)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 5, 0, 0));
    q.push(cand(2, 12, 0, 1));
    q.push(cand(3, 8, 0, 2));
    auto first = q.popFor(0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->addr, 2u);
    EXPECT_EQ(q.popFor(0)->addr, 3u);
    EXPECT_EQ(q.popFor(0)->addr, 1u);
    EXPECT_FALSE(q.popFor(0).has_value());
}

TEST(DupQueue, HdOrderIsHottestFirst)
{
    DupQueue q(DupQueue::Rank::ByHotnessDesc);
    q.push(cand(1, 5, 3, 0));
    q.push(cand(2, 9, 100, 1));
    q.push(cand(3, 7, 10, 2));
    EXPECT_EQ(q.popFor(0)->addr, 2u);
    EXPECT_EQ(q.popFor(0)->addr, 3u);
    EXPECT_EQ(q.popFor(0)->addr, 1u);
}

TEST(DupQueue, Rule2FiltersShallowCandidates)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 3, 0, 0));
    // A dummy slot at level 3 cannot duplicate a block at level 3
    // (must be strictly deeper) …
    EXPECT_FALSE(q.popFor(3).has_value());
    // … but a slot at level 2 can.
    EXPECT_TRUE(q.popFor(2).has_value());
}

TEST(DupQueue, HdSkipsHottestWhenTooShallow)
{
    DupQueue q(DupQueue::Rank::ByHotnessDesc);
    q.push(cand(1, 2, 100, 0));  // hottest but shallow
    q.push(cand(2, 9, 5, 1));
    auto got = q.popFor(4);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->addr, 2u);
    EXPECT_EQ(q.size(), 1u);  // The hot one stays queued.
}

TEST(DupQueue, TiesBreakNewestFirst)
{
    // Freshly evicted rear data outranks older circulating copies at
    // equal priority, so the prime slots rotate over recent
    // evictions instead of ossifying.
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(10, 6, 0, 0));
    q.push(cand(11, 6, 0, 1));
    EXPECT_EQ(q.popFor(0)->addr, 11u);
    EXPECT_EQ(q.popFor(0)->addr, 10u);
}

TEST(DupQueue, ClearEmpties)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 5, 0, 0));
    q.clear();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.popFor(0).has_value());
}

TEST(DupQueue, PopConsumesCandidate)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 5, 0, 0));
    EXPECT_TRUE(q.popFor(1).has_value());
    EXPECT_FALSE(q.popFor(1).has_value());
}

TEST(DupQueue, RefillReaddsEveryCandidate)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    EXPECT_FALSE(q.refill());  // Nothing pushed: nothing to re-add.
    q.push(cand(1, 5, 0, 0));
    q.push(cand(2, 3, 0, 1));
    EXPECT_EQ(q.popFor(2)->addr, 1u);
    EXPECT_FALSE(q.popFor(4).has_value());
    EXPECT_EQ(q.size(), 1u);
    ASSERT_TRUE(q.refill());
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.popFor(4)->addr, 1u);
    EXPECT_EQ(q.popFor(0)->addr, 2u);
    EXPECT_EQ(q.popFor(0)->addr, 2u);
    EXPECT_FALSE(q.popFor(0).has_value());
}

namespace {

/**
 * The queue as it was before it sorted: an unsorted vector, a strict
 * best-first scan at every pop and swap-with-last removal, with
 * refills that re-push every candidate since clear().  The sorted,
 * cursor-driven DupQueue must pop exactly what this pops.
 */
class ScanQueue
{
  public:
    explicit ScanQueue(DupQueue::Rank rank) : _rank(rank) {}

    void
    push(const DupCandidate &c)
    {
        _items.push_back(c);
        _all.push_back(c);
    }

    std::optional<DupCandidate>
    popFor(unsigned slotLevel)
    {
        std::size_t best = _items.size();
        for (std::size_t i = 0; i < _items.size(); ++i) {
            if (_items[i].maxLevel <= slotLevel)
                continue;
            if (best == _items.size() || better(_items[i], _items[best]))
                best = i;
        }
        if (best == _items.size())
            return std::nullopt;
        DupCandidate c = _items[best];
        _items[best] = _items.back();
        _items.pop_back();
        return c;
    }

    bool
    refill()
    {
        if (_all.empty())
            return false;
        for (const DupCandidate &c : _all)
            _items.push_back(c);
        return true;
    }

    void
    clear()
    {
        _items.clear();
        _all.clear();
    }

    std::size_t size() const { return _items.size(); }

  private:
    bool
    better(const DupCandidate &a, const DupCandidate &b) const
    {
        if (_rank == DupQueue::Rank::ByLevelDesc) {
            if (a.rearLevel != b.rearLevel)
                return a.rearLevel > b.rearLevel;
        } else if (a.hotness != b.hotness) {
            return a.hotness > b.hotness;
        }
        return a.seq > b.seq;
    }

    DupQueue::Rank _rank;
    std::vector<DupCandidate> _items;
    std::vector<DupCandidate> _all;
};

enum class LevelPattern { Rising, Falling, Mixed };

void
checkAgainstScan(DupQueue::Rank rank, LevelPattern pattern,
                 std::uint64_t seed)
{
    constexpr unsigned kLevels = 12;
    Rng rng(seed);
    DupQueue fast(rank);
    ScanQueue ref(rank);
    std::uint64_t nextSeq = 0;
    unsigned level = 0;
    for (int step = 0; step < 4000; ++step) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step));
        const std::uint64_t op = rng.below(100);
        if (op < 45) {
            // Seqs are unique, as in production, but arrive out of
            // order now and then.
            DupCandidate c;
            c.addr = rng.below(64);
            c.rearLevel = static_cast<unsigned>(rng.below(kLevels));
            c.maxLevel = static_cast<unsigned>(rng.below(kLevels + 1));
            c.hotness = static_cast<std::uint32_t>(rng.below(4));
            c.seq = rng.chance(0.2) ? nextSeq + 1000000 : nextSeq;
            ++nextSeq;
            fast.push(c);
            ref.push(c);
        } else if (op < 90) {
            switch (pattern) {
              case LevelPattern::Rising:
                if (rng.chance(0.3) && level + 1 < kLevels)
                    ++level;
                break;
              case LevelPattern::Falling:
                if (rng.chance(0.3) && level > 0)
                    --level;
                else if (level == 0 && rng.chance(0.05))
                    level = kLevels - 1;
                break;
              case LevelPattern::Mixed:
                level = static_cast<unsigned>(rng.below(kLevels));
                break;
            }
            const std::optional<DupCandidate> want = ref.popFor(level);
            const std::optional<DupCandidate> got = fast.popFor(level);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "level " << level;
            if (want) {
                EXPECT_EQ(got->addr, want->addr);
                EXPECT_EQ(got->seq, want->seq);
            }
        } else if (op < 98) {
            EXPECT_EQ(fast.refill(), ref.refill());
        } else {
            fast.clear();
            ref.clear();
            if (pattern == LevelPattern::Rising)
                level = 0;
        }
        ASSERT_EQ(fast.size(), ref.size());
    }
}

} // namespace

TEST(DupQueue, MatchesScanQueueForRisingLevels)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        checkAgainstScan(DupQueue::Rank::ByLevelDesc,
                         LevelPattern::Rising, seed);
        checkAgainstScan(DupQueue::Rank::ByHotnessDesc,
                         LevelPattern::Rising, seed);
    }
}

TEST(DupQueue, MatchesScanQueueForFallingLevels)
{
    for (std::uint64_t seed = 11; seed <= 16; ++seed) {
        checkAgainstScan(DupQueue::Rank::ByLevelDesc,
                         LevelPattern::Falling, seed);
        checkAgainstScan(DupQueue::Rank::ByHotnessDesc,
                         LevelPattern::Falling, seed);
    }
}

TEST(DupQueue, MatchesScanQueueForMixedLevels)
{
    for (std::uint64_t seed = 21; seed <= 26; ++seed) {
        checkAgainstScan(DupQueue::Rank::ByLevelDesc,
                         LevelPattern::Mixed, seed);
        checkAgainstScan(DupQueue::Rank::ByHotnessDesc,
                         LevelPattern::Mixed, seed);
    }
}
