/**
 * @file
 * The on-chip stash (paper Section II-C / V-A).
 *
 * Modelled after the CAM-based stash of Phantom [15]: content
 * addressable by program address, with an evicted/replaceable bit.  In
 * this implementation "replaceable" entries are simply removed (their
 * slot is free); shadow-block entries are kept but are always
 * replaceable, so they never count against the stash capacity — this
 * is what preserves the baseline stash-overflow probability (paper
 * Rule-3 and Section IV-B2).
 *
 * Like the CAM, the storage is fixed: a slab of capacity + 1 entry
 * slots (an insert lands before the displacement it may trigger) and
 * an open-addressed address index sized at construction.  The slab
 * grows only when real entries overflow the capacity, which is
 * counted as an overflow event; the healthy path never allocates.
 *
 * The merge operation of Section IV-A is enforced structurally: the
 * stash holds at most one entry per address, a real entry always wins
 * over a shadow entry, and multiple shadows collapse into one.
 */

#ifndef SBORAM_ORAM_STASH_HH
#define SBORAM_ORAM_STASH_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "Block.hh"
#include "DuplicationPolicy.hh"
#include "ckpt/Serde.hh"
#include "common/Logging.hh"
#include "common/Types.hh"
#include "common/VectorPool.hh"

namespace sboram {

/** One stash entry; at most one per address after merging. */
struct StashEntry
{
    Addr addr = kInvalidAddr;
    LeafLabel leaf = 0;
    std::uint32_t version = 0;
    BlockType type = BlockType::Dummy;
    std::uint64_t seq = 0;  ///< Insertion order, for determinism.
    /** Links in the stash's seq-ordered list of this entry's class
     *  (reals or shadows) while the entry is stash-resident;
     *  transient bookkeeping, not serialized. */
    StashEntry *prev = nullptr;
    StashEntry *next = nullptr;
    SB_SECRET std::vector<std::uint64_t> payload;

    bool isShadow() const { return type == BlockType::Shadow; }

    /** Wire format of one entry: the stash's entries and TinyOram's
     *  pending eviction shadows share it. */
    template <class Self, class Ar>
    static void
    serde(Self &e, Ar &ar)
    {
        ar.u64(e.addr);
        ar.u64(e.leaf);
        ar.u32(e.version);
        ar.u8As(e.type);
        ar.u64(e.seq);
        ar.vecU64(e.payload);
    }
};

/** Aggregate stash statistics. */
struct StashStats
{
    std::uint64_t peakReal = 0;     ///< Max real occupancy observed.
    std::uint64_t overflowEvents = 0;
    std::uint64_t mergesRealWins = 0;  ///< Shadow discarded for real.
    std::uint64_t mergesShadowDup = 0; ///< Shadow collapsed w/ shadow.

    /** Wire format (inside Stash's snapshot body and kSectionResult). */
    template <class Self, class Ar>
    static void
    serde(Self &s, Ar &ar)
    {
        ar.u64(s.peakReal);
        ar.u64(s.overflowEvents);
        ar.u64(s.mergesRealWins);
        ar.u64(s.mergesShadowDup);
    }
};

class Stash
{
  public:
    explicit Stash(unsigned capacity);

    /** The seq lists and the index hold pointers into the slab. */
    Stash(const Stash &) = delete;
    Stash &operator=(const Stash &) = delete;

    /**
     * Insert a block, applying the merge rules.  Returns false when
     * the incoming block was discarded by a merge.
     */
    SB_HOT bool insert(StashEntry entry);

    /** Find the entry (real or shadow) for an address, or nullptr. */
    const StashEntry *find(Addr addr) const;
    StashEntry *find(Addr addr);

    /** Remove the entry for an address (after eviction placement). */
    SB_HOT void remove(Addr addr);

    /** Discard any shadow entry for this address (merge case 1). */
    SB_HOT void dropShadowOf(Addr addr);

    /** Number of real (capacity-counting) entries. */
    std::uint64_t realCount() const { return _realCount; }
    /** Number of shadow (replaceable) entries. */
    std::uint64_t
    shadowCount() const
    {
        return _size - _realCount;
    }

    std::uint64_t size() const { return _size; }
    unsigned capacity() const { return _capacity; }

    /**
     * Entry slots the slab holds, used or free: capacity + 1 unless
     * real entries ever overflowed the capacity.  Exposed for tests
     * that pin the healthy path allocation-free.
     */
    std::size_t slabSlots() const { return _slab.size(); }

    /**
     * Home slot of @p addr in an index of 2^@p bits slots
     * (Fibonacci hashing; linear probing from there).  Exposed so
     * tests can pick addresses that collide.
     */
    static std::size_t
    indexHome(Addr addr, unsigned bits)
    {
        return static_cast<std::size_t>(
            (addr * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
    }

    const StashStats &stats() const { return _stats; }

    /**
     * Collect entries eligible for placement at @p level of a path
     * write, i.e. whose common prefix with the eviction leaf is at
     * least @p level, ordered deterministically: real entries first,
     * then shadows, each in insertion order.  @p commonLevelFn maps a
     * block leaf to the common prefix length.
     *
     * Reference implementation: one filtered list walk per call.
     * The eviction hot path uses planEvictionInto() instead, which
     * walks the seq lists once per eviction and marks placements
     * consumed; tests check the two agree.
     */
    template <typename CommonLevelFn>
    std::vector<Addr>
    eligibleForLevel(unsigned level, CommonLevelFn &&commonLevelFn) const
    {
        std::vector<Addr> addrs;
        forEach([&](const StashEntry &e) {
            if (commonLevelFn(e.leaf) >= level)
                addrs.push_back(e.addr);
        });
        return addrs;
    }

    /** One stash entry's slice of an EvictionPlan. */
    struct PlanEntry
    {
        Addr addr = kInvalidAddr;
        unsigned commonLevel = 0;  ///< Deepest level on the path.
        bool shadow = false;
        bool placed = false;  ///< Consumed by a placement already.
    };

    /**
     * Per-eviction placement plan (see planEvictionInto): every
     * entry's common-prefix level with the eviction path, computed
     * up front and held in the canonical placement order (reals
     * first, then shadows, insertion order within each class).  A
     * path write walks the levels leaf-to-root, asking for the
     * eligible entries of each level; entries it places are marked
     * consumed so they stop appearing at shallower levels — exactly
     * the behaviour of re-running eligibleForLevel() against the
     * shrinking stash, at one list walk per eviction instead of one
     * rescan per level.
     *
     * Valid only while no entries are *added* to the stash (path
     * write pass 1 only removes).
     */
    class EvictionPlan
    {
      public:
        /**
         * Visit the not-yet-placed entries whose common level is at
         * least @p level, in canonical order.  @p fn receives a
         * mutable PlanEntry (set .placed after consuming it) and
         * returns false to stop early (bucket full).
         */
        template <typename Fn>
        void
        forEachEligible(unsigned level, Fn &&fn)
        {
            for (PlanEntry &e : _order) {
                if (e.placed || e.commonLevel < level)
                    continue;
                if (!fn(e))
                    return;
            }
        }

        /** Eligible addresses at @p level (testing / diagnostics). */
        std::vector<Addr>
        eligibleForLevel(unsigned level) const
        {
            std::vector<Addr> addrs;
            for (const PlanEntry &e : _order) {
                if (!e.placed && e.commonLevel >= level)
                    addrs.push_back(e.addr);
            }
            return addrs;
        }

      private:
        friend class Stash;
        std::vector<PlanEntry> _order;
    };

    /**
     * Build the placement plan for one eviction into @p plan, reusing
     * its storage: one walk of the seq lists computes each entry's
     * common-prefix level with the eviction path, already in the
     * canonical order.  @p commonLevelFn maps a block leaf to the
     * common prefix length with the eviction leaf.  The eviction hot
     * path keeps one plan object alive across path writes so planning
     * allocates nothing in steady state.
     */
    template <typename CommonLevelFn>
    void
    planEvictionInto(EvictionPlan &plan,
                     CommonLevelFn &&commonLevelFn) const
    {
        plan._order.clear();
        plan._order.reserve(_size);
        forEach([&](const StashEntry &e) {
            plan._order.push_back(PlanEntry{
                e.addr, commonLevelFn(e.leaf), e.isShadow(), false});
        });
    }

    /** Visit every real entry, then every shadow, each in seq
     *  (insertion) order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const StashEntry *e = _reals.head; e; e = e->next)
            fn(*e);
        forEachShadow(fn);
    }

    /** Visit every shadow entry in seq (insertion) order. */
    template <typename Fn>
    void
    forEachShadow(Fn &&fn) const
    {
        for (const StashEntry *e = _shadows.head; e; e = e->next)
            fn(*e);
    }

    /**
     * Install a hotness oracle used to pick shadow-displacement
     * victims: when the CAM fills up, the coldest shadow goes first
     * (HD-Dup's Hot Address Cache provides the ranking), oldest first
     * among equals.  Without an oracle, displacement is oldest-first.
     * Not owned; must outlive the stash.
     *
     * The victim search caches which shadows it found hot (see
     * _victimCursor), so the owner must call hotnessChanged() after
     * anything that may change the oracle's answers.
     */
    void
    setHotnessOracle(const DuplicationPolicy *policy)
    {
        _hotness = policy;
        _victimCursor = _shadows.head;
    }

    /** The hotness oracle's answers may have changed: forget which
     *  shadows are known hot. */
    void hotnessChanged() { _victimCursor = _shadows.head; }

    /**
     * The shadow the next displacement would evict: the strict
     * minimum over (hotness, seq), or nullptr when the stash holds no
     * shadow.  Exposed for tests; enforceCapacity() is the user.
     */
    SB_HOT StashEntry *displacementVictim();

    /**
     * Install the pool that receives payload buffers of entries the
     * stash drops (merge discards, capacity displacement, remove).
     * Not owned; must outlive the stash.  Pooling keeps path reads
     * from allocating a fresh vector per block (payload mode only;
     * entries without payloads are free).
     */
    void
    setPayloadRecycler(VectorPool *pool)
    {
        _recycle = pool;
    }

    /**
     * Checkpoint entries + counters.  Restoring bypasses the
     * merge/capacity logic (the snapshot already holds a legal
     * post-merge stash).  The hotness oracle and payload recycler are
     * not state and stay installed.
     */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    void trackOccupancy();
    SB_HOT void enforceCapacity();

    /** The entry for @p addr, or nullptr: one linear probe run. */
    StashEntry *
    lookup(Addr addr) const
    {
        const std::size_t mask = _index.size() - 1;
        for (std::size_t i = indexHome(addr, _indexBits);;
             i = (i + 1) & mask) {
            const IndexSlot &slot = _index[i];
            if (slot.entry == nullptr || slot.addr == addr)
                return slot.entry;
        }
    }

    /** Move @p entry into a free slab slot, index and link it. */
    void emplace(StashEntry &&entry);
    /** Unindex, unlink and free the slab slot of @p entry. */
    void erase(StashEntry *entry);
    /** Index @p entry (its address must be absent). */
    void indexInsert(StashEntry *entry);
    /** Drop @p addr from the index, closing the probe run behind it
     *  by backward shift (no tombstones). */
    void indexErase(Addr addr);
    /** Add one slab slot (at construction and on a real overflow
     *  only), doubling the index when the slots would pass half of
     *  it. */
    void grow();
    /** Every slab slot free and empty, the index cleared. */
    void reset();

    /** Hand a dying entry's payload buffer back to the owner. */
    void
    recyclePayload(StashEntry &entry)
    {
        // Unconditional hand-off: release() itself drops capacity-0
        // buffers, so gating on the entry's buffer state here would
        // be a data-dependent branch for nothing.
        if (_recycle)
            _recycle->release(std::move(entry.payload));
    }

    /** A seq-ordered intrusive list through StashEntry::prev/next. */
    struct SeqList
    {
        StashEntry *head = nullptr;
        StashEntry *tail = nullptr;
    };

    SeqList &
    listOf(const StashEntry &e)
    {
        return e.isShadow() ? _shadows : _reals;
    }

    /**
     * Append @p entry to its class's list.  Every caller adds the
     * entry with the largest seq so far (insert() assigns a fresh
     * one; a restore re-adds in seq order), so the list stays sorted.
     */
    void
    link(StashEntry *entry)
    {
        SeqList &list = listOf(*entry);
        entry->prev = list.tail;
        entry->next = nullptr;
        if (list.tail)
            list.tail->next = entry;
        else
            list.head = entry;
        list.tail = entry;
        if (entry->isShadow() && !_victimCursor)
            _victimCursor = entry;
    }

    /** Unlink @p entry from its class's list; every erase needs one. */
    void
    unlink(StashEntry *entry)
    {
        SeqList &list = listOf(*entry);
        if (_victimCursor == entry)
            _victimCursor = entry->next;
        if (entry->prev)
            entry->prev->next = entry->next;
        else
            list.head = entry->next;
        if (entry->next)
            entry->next->prev = entry->prev;
        else
            list.tail = entry->prev;
        entry->prev = entry->next = nullptr;
    }

    /** One index slot; entry == nullptr marks it empty. */
    struct IndexSlot
    {
        Addr addr = kInvalidAddr;
        StashEntry *entry = nullptr;
    };

    unsigned _capacity;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _realCount = 0;
    std::uint64_t _size = 0;  ///< Entries in use.
    /**
     * Entry storage.  A deque never moves its elements when it grows
     * at the back, so the pointers the lists, the index and the
     * callers of find() hold stay valid.  Free slots are chained
     * through StashEntry::next from _freeHead.
     */
    std::deque<StashEntry> _slab;
    StashEntry *_freeHead = nullptr;
    /** Address -> slab slot, linear probing, 2^_indexBits slots, at
     *  most half full. */
    std::vector<IndexSlot> _index;
    unsigned _indexBits = 0;
    /**
     * Every entry in seq order, one intrusive list per class through
     * the slab slots themselves.  The eviction plan, forEach(), the
     * snapshot save, the path write's stash-shadow offers and the
     * victim search walk these lists; nothing whose order can reach
     * an output walks the slab or the index.
     */
    SeqList _reals;
    SeqList _shadows;
    /**
     * First shadow not known to be hot: every shadow before it was
     * hot when displacementVictim() last probed it, and hotness has
     * not changed since (hotnessChanged() rewinds the cursor to the
     * head).  nullptr when every shadow is known hot.
     */
    StashEntry *_victimCursor = nullptr;
    const DuplicationPolicy *_hotness = nullptr;
    VectorPool *_recycle = nullptr;
    StashStats _stats;
};

} // namespace sboram

#endif // SBORAM_ORAM_STASH_HH
