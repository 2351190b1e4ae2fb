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
 * The merge operation of Section IV-A is enforced structurally: the
 * stash holds at most one entry per address, a real entry always wins
 * over a shadow entry, and multiple shadows collapse into one.
 */

#ifndef SBORAM_ORAM_STASH_HH
#define SBORAM_ORAM_STASH_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
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
    /** Position in the stash's shadow side-list while this entry is a
     *  stash-resident shadow; transient bookkeeping, not serialized. */
    std::uint32_t shadowIdx = 0;
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
};

class Stash
{
  public:
    explicit Stash(unsigned capacity) : _capacity(capacity) {}

    /**
     * Insert a block, applying the merge rules.  Returns false when
     * the incoming block was discarded by a merge.
     */
    bool insert(StashEntry entry);

    /** Find the entry (real or shadow) for an address, or nullptr. */
    const StashEntry *find(Addr addr) const;
    StashEntry *find(Addr addr);

    /** Remove the entry for an address (after eviction placement). */
    void remove(Addr addr);

    /** Discard any shadow entry for this address (merge case 1). */
    void dropShadowOf(Addr addr);

    /** Number of real (capacity-counting) entries. */
    std::uint64_t realCount() const { return _realCount; }
    /** Number of shadow (replaceable) entries. */
    std::uint64_t
    shadowCount() const
    {
        return _entries.size() - _realCount;
    }

    std::uint64_t size() const { return _entries.size(); }
    unsigned capacity() const { return _capacity; }

    const StashStats &stats() const { return _stats; }

    /**
     * Collect entries eligible for placement at @p level of a path
     * write, i.e. whose common prefix with the eviction leaf is at
     * least @p level, ordered deterministically: real entries first,
     * then shadows, each in insertion order.  @p commonLevelFn maps a
     * block leaf to the common prefix length.
     *
     * Reference implementation: one rescan + sort per call.  The
     * eviction hot path uses planEviction() instead, which computes
     * the same ordering once per eviction; tests check the two agree.
     */
    template <typename CommonLevelFn>
    std::vector<Addr>
    eligibleForLevel(unsigned level, CommonLevelFn &&commonLevelFn) const
    {
        std::vector<const StashEntry *> picked;
        // sblint:allow-next-line(unordered-iteration): membership filter only; order canonicalised by the (class, seq) sort below
        for (const auto &kv : _entries) {
            if (commonLevelFn(kv.second.leaf) >= level)
                picked.push_back(&kv.second);
        }
        std::sort(picked.begin(), picked.end(),
                  [](const StashEntry *a, const StashEntry *b) {
                      const bool as = a->isShadow();
                      const bool bs = b->isShadow();
                      if (as != bs)
                          return !as;  // reals first
                      return a->seq < b->seq;
                  });
        std::vector<Addr> addrs;
        addrs.reserve(picked.size());
        for (const StashEntry *e : picked)
            addrs.push_back(e->addr);
        return addrs;
    }

    /** One stash entry's slice of an EvictionPlan. */
    struct PlanEntry
    {
        Addr addr = kInvalidAddr;
        unsigned commonLevel = 0;  ///< Deepest level on the path.
        bool shadow = false;
        bool placed = false;  ///< Consumed by a placement already.
        std::uint64_t seq = 0;
    };

    /**
     * Per-eviction placement plan (see planEviction): every entry's
     * common-prefix level with the eviction path, grouped up front
     * and held in the canonical placement order (reals first, then
     * shadows, insertion order within each class).  A path write
     * walks the levels leaf-to-root, asking for the eligible entries
     * of each level; entries it places are marked consumed so they
     * stop appearing at shallower levels — exactly the behaviour of
     * re-running eligibleForLevel() against the shrinking stash, at
     * one pass + one sort per eviction instead of one per level.
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
     * Build the placement plan for one eviction: a single bucketing
     * pass over the stash computes each entry's common-prefix level
     * with the eviction path, then one sort establishes the
     * canonical order.  @p commonLevelFn maps a block leaf to the
     * common prefix length with the eviction leaf.
     */
    template <typename CommonLevelFn>
    EvictionPlan
    planEviction(CommonLevelFn &&commonLevelFn) const
    {
        EvictionPlan plan;
        planEvictionInto(plan,
                         std::forward<CommonLevelFn>(commonLevelFn));
        return plan;
    }

    /**
     * In-place variant of planEviction: rebuilds @p plan, reusing its
     * storage.  The eviction hot path keeps one plan object alive
     * across path writes so planning allocates nothing in steady
     * state.
     */
    template <typename CommonLevelFn>
    void
    planEvictionInto(EvictionPlan &plan,
                     CommonLevelFn &&commonLevelFn) const
    {
        plan._order.clear();
        plan._order.reserve(_entries.size());
        // sblint:allow-next-line(unordered-iteration): bucketing pass only; order canonicalised by the (class, seq) sort below
        for (const auto &kv : _entries) {
            PlanEntry e;
            e.addr = kv.second.addr;
            e.commonLevel = commonLevelFn(kv.second.leaf);
            e.shadow = kv.second.isShadow();
            e.seq = kv.second.seq;
            plan._order.push_back(e);
        }
        std::sort(plan._order.begin(), plan._order.end(),
                  [](const PlanEntry &a, const PlanEntry &b) {
                      if (a.shadow != b.shadow)
                          return !a.shadow;  // reals first
                      return a.seq < b.seq;
                  });
    }

    /**
     * Visit every entry (order unspecified by contract).  Callers
     * that are order-sensitive must collect and sort by the unique
     * seq — see TinyOram::pathWrite's stash-shadow offers.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        // sblint:allow-next-line(unordered-iteration): contract is order-unspecified; order-sensitive callers sort by unique seq
        for (const auto &kv : _entries)
            fn(kv.second);
    }

    /**
     * Install a hotness oracle used to pick shadow-displacement
     * victims: when the CAM fills up, the coldest shadow goes first
     * (HD-Dup's Hot Address Cache provides the ranking).  Without an
     * oracle, displacement is oldest-first.  A raw interface pointer
     * (not owned; must outlive the stash) replaces the previous
     * std::function: the oracle fires once per shadow entry per
     * displacement, and the type-erased wrapper was a measured hot
     * symbol.
     */
    void
    setHotnessOracle(const DuplicationPolicy *policy)
    {
        _hotness = policy;
    }

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
    void enforceCapacity();

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

    /** Track @p entry in the shadow side-list (see _shadows). */
    void
    addShadow(StashEntry *entry)
    {
        entry->shadowIdx = static_cast<std::uint32_t>(_shadows.size());
        _shadows.push_back(entry);
    }

    /** Untrack @p entry: swap-remove (the list is unordered). */
    void
    removeShadow(StashEntry *entry)
    {
        const std::uint32_t idx = entry->shadowIdx;
        StashEntry *last = _shadows.back();
        _shadows[idx] = last;
        last->shadowIdx = idx;
        _shadows.pop_back();
    }

    unsigned _capacity;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _realCount = 0;
    std::unordered_map<Addr, StashEntry> _entries;
    /**
     * Every shadow entry, by pointer (unordered_map nodes are
     * pointer-stable).  Displacement victim selection scans only
     * this list instead of hashing through the whole map; the scan
     * is a strict minimum over the unique (hotness, seq) key, so the
     * list's order never influences the choice.
     */
    std::vector<StashEntry *> _shadows;
    const DuplicationPolicy *_hotness = nullptr;
    VectorPool *_recycle = nullptr;
    StashStats _stats;
};

} // namespace sboram

#endif // SBORAM_ORAM_STASH_HH
