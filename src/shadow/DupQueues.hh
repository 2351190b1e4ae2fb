/**
 * @file
 * RD-queue and HD-queue (paper Section V-B2).
 *
 * During a path write, every block written back becomes a duplication
 * candidate and is inserted into both queues.  The RD-queue ranks
 * candidates by the tree level they were placed at (deepest — "rear"
 * — first); the HD-queue ranks by the Hot Address Cache counter
 * (hottest first).  When a dummy slot is encountered, the head of the
 * chosen queue that satisfies Rule-2 (candidate strictly deeper than
 * the slot) is popped and duplicated.  Both queues are cleared after
 * the path write completes.  The RD-queue is ordered by counting over
 * the tree levels, the HD-queue by a comparison sort.
 */

#ifndef SBORAM_SHADOW_DUPQUEUES_HH
#define SBORAM_SHADOW_DUPQUEUES_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/Types.hh"
#include "oram/DuplicationPolicy.hh"

namespace sboram {

/** A queued duplication candidate. */
struct DupCandidate
{
    Addr addr = kInvalidAddr;
    LeafLabel leaf = 0;
    std::uint32_t version = 0;
    /**
     * RD-Dup priority: how "rear" the data is — the tree level of
     * its real copy.  For blocks placed in this path write this is
     * the placement level; for re-offered stash shadows it is the
     * real copy's current level.
     */
    unsigned rearLevel = 0;
    /** Placement constraint: a shadow may go to slots strictly above
     *  this level (Rule-1 label compatibility and Rule-2). */
    unsigned maxLevel = 0;
    std::uint32_t hotness = 0;
    std::uint64_t seq = 0;    ///< Insertion order tie-breaker.
};

/**
 * One priority queue of duplication candidates, sorted once and then
 * consumed through a cursor.
 *
 * A path write pushes every candidate before its first pop, so the
 * first popFor() sorts the candidates best-first and later pops walk
 * forward from a cursor.  The RD queue (ByLevelDesc) is counted: a
 * counting pass over the levels scatters the candidates deepest
 * level first, and an insertion pass by seq finishes each level,
 * linear for the rising-seq pushes of a path write.  The HD queue
 * (ByHotnessDesc) keeps a comparison sort, because hotness is an
 * unbounded counter.  Pass 2 of a path write offers dummy slots
 * root side first, so the slot levels one queue sees never decrease;
 * a candidate that fails Rule-2 at one level fails at every later
 * one, and the cursor passes it for good.  A pop at a lower level
 * than the previous one rewinds the cursor, and a push after a pop
 * re-sorts, so the queue pops exactly what a best-first scan would
 * for any call order — it is only fast for the production order.
 *
 * refill() re-adds one copy of every candidate pushed since clear()
 * in O(1): each candidate keeps the refill generation it was pushed
 * in and how many copies of it were popped, which together give its
 * remaining copies.  `better` is a strict total order (the unique seq
 * breaks every tie), so copies of one candidate are interchangeable.
 */
class DupQueue
{
  public:
    /** Ordering selector. */
    enum class Rank { ByLevelDesc, ByHotnessDesc };

    explicit DupQueue(Rank rank) : _rank(rank) {}

    void
    push(const DupCandidate &cand)
    {
        _items.push_back(Item{cand, _generation, 0});
        _sorted = false;
    }

    /**
     * Pop the best candidate placed strictly deeper than @p slotLevel
     * (Rule-2), or nullopt when none qualifies.
     */
    SB_HOT std::optional<DupCandidate> popFor(unsigned slotLevel);

    /**
     * Re-add one copy of every candidate pushed since clear() (a
     * block may carry several shadow copies per path write).  Returns
     * false, adding nothing, when no candidate was pushed.
     */
    SB_HOT bool refill();

    void clear();
    /** Copies still queued, refills included. */
    std::size_t size() const;

  private:
    struct Item
    {
        DupCandidate cand;
        std::uint32_t bornGeneration = 0;  ///< _generation at push.
        std::uint32_t taken = 0;           ///< Copies popped so far.
    };

    bool better(const DupCandidate &a, const DupCandidate &b) const;
    /** Sort _items best-first for ByLevelDesc: counting by level,
     *  then an insertion pass by seq. */
    SB_HOT void sortByLevel();

    /** Copies of @p it still queued. */
    std::uint32_t
    copiesLeft(const Item &it) const
    {
        return _generation + 1 - it.bornGeneration - it.taken;
    }

    Rank _rank;
    /** Candidates, best-first once _sorted; storage reused across
     *  path writes. */
    std::vector<Item> _items;
    /** sortByLevel() scratch, reused across path writes: the scatter
     *  target and the per-level bucket cursors. */
    std::vector<Item> _scratch;
    std::vector<std::size_t> _bucketNext;
    bool _sorted = true;
    /** Every item before the cursor is used up or fails Rule-2 at
     *  _lastLevel (and so at any level at or above it). */
    std::size_t _cursor = 0;
    unsigned _lastLevel = 0;
    std::uint32_t _generation = 0;  ///< Refills since clear().
};

} // namespace sboram

#endif // SBORAM_SHADOW_DUPQUEUES_HH
