/**
 * @file
 * The Shadow Block duplication policy (paper Section IV), plugged
 * into the Tiny ORAM path write through the DuplicationPolicy hooks.
 *
 * Four operating modes cover everything the evaluation sweeps:
 * RD-Dup only, HD-Dup only, static partitioning at a fixed level, and
 * dynamic partitioning with an n-bit DRI counter.
 */

#ifndef SBORAM_SHADOW_SHADOWPOLICY_HH
#define SBORAM_SHADOW_SHADOWPOLICY_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "DupQueues.hh"
#include "HotAddressCache.hh"
#include "PartitionController.hh"
#include "ckpt/Serde.hh"
#include "oram/DuplicationPolicy.hh"

namespace sboram {

/** How the tree is split between the two duplication schemes. */
enum class ShadowMode : std::uint8_t
{
    RdOnly,          ///< Whole tree uses RD-Dup (partition level 0).
    HdOnly,          ///< Whole tree uses HD-Dup (partition level L+1).
    StaticPartition, ///< Fixed partition level.
    DynamicPartition,///< DRI-counter-driven partition level.
};

/** Construction parameters for the shadow policy. */
struct ShadowConfig
{
    ShadowMode mode = ShadowMode::DynamicPartition;
    unsigned staticLevel = 7;      ///< For StaticPartition.
    unsigned driCounterBits = 3;   ///< For DynamicPartition.
    unsigned hotCacheEntries = 128;///< 1 KB at ~8 B/entry (paper V-C).
    unsigned hotCacheAssoc = 4;
    /** Allow several shadow copies of one candidate per path write
     *  (queue refill on exhaustion).  Off = ablation. */
    bool refillQueues = true;
};

/** Activity counters for the policy itself. */
struct ShadowPolicyStats
{
    std::uint64_t rdDuplications = 0;
    std::uint64_t hdDuplications = 0;
    std::uint64_t dummySlotsSeen = 0;
    std::uint64_t partitionAdjustments = 0;
};

class ShadowPolicy : public DuplicationPolicy
{
  public:
    /**
     * @param cfg Policy parameters.
     * @param leafLevel L of the tree this policy serves.
     */
    ShadowPolicy(const ShadowConfig &cfg, unsigned leafLevel);

    void beginPathWrite(LeafLabel leaf) override;
    void onBlockPlaced(const PlacedBlock &placed) override;
    void offerStashShadow(Addr addr, LeafLabel leaf,
                          std::uint32_t version, unsigned rearLevel,
                          unsigned maxLevel) override;
    std::optional<ShadowChoice> selectShadow(unsigned level) override;
    void endPathWrite() override;
    void onLlcMiss(Addr addr) override;
    void onRequestClassified(bool wasDummy) override;
    unsigned partitionLevel() const override;

    std::uint32_t
    hotnessOf(Addr addr) const override
    {
        return _hot.count(addr);
    }

    const ShadowPolicyStats &stats() const { return _stats; }
    const HotAddressCache &hotCache() const { return _hot; }

    /** Current DRI counter value (obs time-series gauge). */
    std::uint32_t driCounter() const { return _partition.counterValue(); }

    /**
     * Checkpoint the policy at an access boundary.  The duplication
     * queues and the per-path-write candidate list are rebuilt by
     * beginPathWrite() and always empty between accesses, so only the
     * durable pieces travel: hot cache, partition state, stats, and
     * the candidate sequence counter.
     */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self._candidateSeq);
        ar.u64(self._stats.rdDuplications);
        ar.u64(self._stats.hdDuplications);
        ar.u64(self._stats.dummySlotsSeen);
        ar.u64(self._stats.partitionAdjustments);
        ar.nested(self._hot);
        ar.nested(self._partition);
    }

    ShadowConfig _cfg;
    unsigned _leafLevel;
    void pushCandidate(const DupCandidate &cand);

    HotAddressCache _hot;
    PartitionController _partition;
    DupQueue _rdQueue;
    DupQueue _hdQueue;
    /** Everything offered this path write, for queue refills: a
     *  candidate may be duplicated more than once per path write
     *  ("shadow block(s)", paper Section IV-A). */
    std::vector<DupCandidate> _allCandidates;
    std::uint64_t _candidateSeq = 0;
    ShadowPolicyStats _stats;
};

} // namespace sboram

#endif // SBORAM_SHADOW_SHADOWPOLICY_HH
