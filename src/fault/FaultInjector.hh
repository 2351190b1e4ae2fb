/**
 * @file
 * Deterministic fault injection for the untrusted ORAM memory.
 *
 * The paper's mechanism is redundancy: shadow blocks duplicate real
 * blocks (Rule-2, version-consistent), which makes the duplication
 * policies a *reliability* feature as well as a latency one — a
 * corrupted real copy can be healed from a same-version shadow.  This
 * module supplies the adversarial memory behaviour needed to exercise
 * that claim: bit flips in bucket ciphertexts, dropped DRAM writes,
 * and transiently stuck storage cells.
 *
 * Everything is scheduled by the controller's access counter through
 * a keyed PRF, so a run is bit-reproducible for a given
 * (rate, seed) at any ExperimentRunner thread count: thread
 * scheduling never touches the fault schedule.
 *
 * The injector knows nothing about the ORAM tree; it operates on
 * CipherText objects and abstract slot indices, and the controller
 * decides which slot of which path is exposed to it (layering:
 * sb_fault depends only on sb_common and sb_crypto).
 */

#ifndef SBORAM_FAULT_FAULTINJECTOR_HH
#define SBORAM_FAULT_FAULTINJECTOR_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Types.hh"
#include "crypto/Otp.hh"
#include "crypto/Prf.hh"

namespace sboram {

/** The modelled classes of memory misbehaviour. */
enum class FaultKind : std::uint8_t
{
    BitFlip,       ///< One flipped bit in a stored ciphertext lane.
    DroppedWrite,  ///< A DRAM write that never landed (stale lanes).
    StuckBit,      ///< A cell stuck for the next few bucket rewrites.
};

/** What the controller should do when recovery fails. */
enum class UnrecoverablePolicy : std::uint8_t
{
    Panic,  ///< Abort with a machine-readable diagnostic (default).
    Throw,  ///< Throw CorruptionError (propagates through futures).
    Count,  ///< Count the loss, zero-fill the payload, continue.
};

/** Knobs for the injector; all off by default (rate 0). */
struct FaultConfig
{
    /** Expected faults per path access; 0 disables injection. */
    double rate = 0.0;
    std::uint64_t seed = 1;

    bool bitFlips = true;
    bool droppedWrites = true;
    bool stuckBits = true;
    /** Bucket rewrites a stuck bit survives before the cell heals. */
    unsigned stuckWrites = 3;

    UnrecoverablePolicy onUnrecoverable = UnrecoverablePolicy::Panic;

    /**
     * Correlated bursts: when burstEvery > 0, faults are only drawn
     * during the first burstLen accesses of every burstEvery-access
     * window (rate applies inside the window).  Models periodic
     * controller brown-outs rather than memoryless corruption.
     */
    unsigned burstEvery = 0;
    unsigned burstLen = 0;

    /**
     * Spatially correlated storms: when subtreeLevels > 0, faults are
     * only injected on paths whose leaf's top subtreeLevels bits equal
     * subtreePrefix — one subtree of the ORAM takes the whole storm,
     * the rest of the memory stays healthy.
     */
    unsigned subtreeLevels = 0;
    std::uint64_t subtreePrefix = 0;

    bool enabled() const { return rate > 0.0; }

    /**
     * Overrides from the environment: SB_FAULT_RATE, SB_FAULT_SEED,
     * SB_FAULT_KINDS (comma list of flip,drop,stuck),
     * SB_FAULT_UNRECOVERABLE (panic|throw|count), burst shaping via
     * SB_FAULT_BURST_EVERY / SB_FAULT_BURST_LEN, and subtree
     * targeting via SB_FAULT_SUBTREE_LEVELS / SB_FAULT_SUBTREE_PREFIX.
     * Unset variables leave the corresponding field untouched.
     */
    static FaultConfig fromEnv(FaultConfig base);
    static FaultConfig fromEnv() { return fromEnv(FaultConfig{}); }
};

/** Injection counters, by kind. */
struct FaultStats
{
    std::uint64_t bitFlips = 0;
    std::uint64_t droppedWrites = 0;
    std::uint64_t stuckBits = 0;
    std::uint64_t stuckReapplied = 0;  ///< Rewrites re-corrupted.

    std::uint64_t
    total() const
    {
        return bitFlips + droppedWrites + stuckBits;
    }
};

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg);

    const FaultConfig &config() const { return _cfg; }
    const FaultStats &stats() const { return _stats; }

    /** Deterministic: does access #n draw a fault? */
    bool shouldInject(std::uint64_t accessCount) const;

    /** Does the configured subtree filter cover @p leaf?  Always true
     *  when subtree targeting is off. */
    bool targetsLeaf(std::uint64_t leaf, unsigned leafLevel) const;

    /**
     * Shift to an independent fault realization (tier-3 rollback):
     * replaying the cursor from a snapshot would otherwise re-inject
     * the exact fault that was unrecoverable, looping forever.  The
     * new generation is one past the current one, floored at
     * @p minGeneration: restoring a snapshot rewinds the serialized
     * generation counter, so consecutive rollbacks to the same
     * snapshot would otherwise replay the same already-failed
     * realization; the caller passes its rollback count to guarantee
     * every attempt faces a schedule it has not seen.  The generation
     * is serialized so kill-and-resume replays the same post-rollback
     * schedule.
     */
    void reseedTo(std::uint32_t minGeneration);

    /** Deterministic choice among @p choices targets for access #n. */
    std::uint64_t pickTarget(std::uint64_t accessCount,
                             std::uint64_t choices) const;

    /** Deterministic fault kind for access #n (enabled kinds only). */
    FaultKind pickKind(std::uint64_t accessCount) const;

    /**
     * Apply a fault of @p kind to the ciphertext stored at
     * @p slotIdx.  BitFlip flips one PRF-chosen lane bit;
     * DroppedWrite garbles every lane (the fresh bucket encryption
     * never landed, so the read-back is inconsistent with the
     * recorded nonce); StuckBit flips one bit and arms the cell so
     * the next stuckWrites rewrites re-corrupt it.  @p ct is a slab
     * view (a CipherText converts implicitly).
     */
    void corrupt(CipherRef ct, std::uint64_t accessCount,
                 FaultKind kind, std::uint64_t slotIdx);

    /**
     * Hook for every completed slot rewrite: if @p slotIdx has a
     * stuck cell armed, re-applies the stuck bit to the fresh
     * ciphertext and decrements its remaining lifetime.  Returns
     * true when the ciphertext was corrupted.
     */
    bool onSlotRewritten(std::uint64_t slotIdx, CipherRef ct);

    /**
     * Checkpoint the schedule cursor: the armed stuck cells and the
     * counters.  The config and PRF key are reconstructed from
     * FaultConfig at construction, so they do not travel.
     */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self._stats.bitFlips);
        ar.u64(self._stats.droppedWrites);
        ar.u64(self._stats.stuckBits);
        ar.u64(self._stats.stuckReapplied);
        // Armed cells in slot-index order: the snapshot must be
        // byte-identical for identical injector state, so the hash
        // map's arbitrary iteration order cannot leak into the image.
        std::vector<std::pair<std::uint64_t, StuckCell>> cells;
        if constexpr (!Ar::kLoading) {
            // sblint:allow-next-line(unordered-iteration): serialized in the sorted order below
            cells.assign(self._stuck.begin(), self._stuck.end());
            std::sort(cells.begin(), cells.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
        }
        ar.seq(cells, [&](auto &kv) {
            ar.u64(kv.first);
            ar.u32(kv.second.bit);
            ar.u32(kv.second.remaining);
        });
        ar.u32(self._reseeds);
        if constexpr (Ar::kLoading) {
            // The PRF key is derived from the generation, not stored.
            self._stuck.clear();
            self._stuck.insert(cells.begin(), cells.end());
            self.rekey();
        }
    }

    /** Derive the PRF key from (cfg.seed, reseed generation). */
    void rekey();

    /** Keyed draw: uniform 64-bit value for (accessCount, stream). */
    std::uint64_t
    draw(std::uint64_t accessCount, std::uint64_t stream) const
    {
        return prf64(_key, accessCount, stream);
    }

    struct StuckCell
    {
        unsigned bit = 0;       ///< Flattened lane*64 + bit position.
        unsigned remaining = 0; ///< Rewrites left before healing.
    };

    FaultConfig _cfg;
    PrfKey _key;
    /** Tier-3 rollback generation; each bump rekeys the schedule. */
    std::uint32_t _reseeds = 0;
    std::unordered_map<std::uint64_t, StuckCell> _stuck;
    FaultStats _stats;
};

} // namespace sboram

#endif // SBORAM_FAULT_FAULTINJECTOR_HH
