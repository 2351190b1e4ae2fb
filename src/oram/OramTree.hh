/**
 * @file
 * The external-memory ORAM tree (paper Section II-C).
 *
 * A binary tree of L+1 levels (level 0 = root, level L = leaves), each
 * bucket holding Z slots.  Buckets are heap-ordered in one flat slot
 * array.  When payloads are enabled, ciphertexts live in contiguous
 * geometry-indexed slabs sized once at construction — one nonce word,
 * one tag word and payloadWords lane words per slot, addressed as
 * slotIndex * payloadWords.  No per-slot heap allocation, no hash
 * lookup on the access path; a nonce of 0 marks an empty slot (the
 * codec's counter is pre-incremented, so real nonces start at 1).
 */

#ifndef SBORAM_ORAM_ORAMTREE_HH
#define SBORAM_ORAM_ORAMTREE_HH

#include <cstdint>
#include <vector>

#include "Block.hh"
#include "OramConfig.hh"
#include "ckpt/Serde.hh"
#include "common/Logging.hh"
#include "common/Types.hh"
#include "crypto/Otp.hh"

namespace sboram {

class OramTree
{
  public:
    OramTree(const OramGeometry &geo, unsigned slotsPerBucket,
             bool payloadEnabled, std::uint64_t payloadWords);

    unsigned leafLevel() const { return _leafLevel; }
    unsigned slotsPerBucket() const { return _slots; }
    std::uint64_t numBuckets() const { return _numBuckets; }
    std::uint64_t numLeaves() const { return _numLeaves; }

    /** Heap index of the bucket at @p level on the path to @p leaf. */
    BucketIndex
    bucketOnPath(LeafLabel leaf, unsigned level) const
    {
        SB_ASSERT(level <= _leafLevel, "level %u beyond leaf", level);
        return _levelBase[level] + (leaf >> (_leafLevel - level));
    }

    /**
     * Bucket indices of the whole path to @p leaf, root first.
     * Resizes @p out to leafLevel()+1 (steady-state callers reuse the
     * same vector, so this is allocation-free after warm-up) and
     * walks the precomputed per-level base/shift tables.
     */
    void
    bucketsOnPath(LeafLabel leaf, std::vector<BucketIndex> &out) const
    {
        out.resize(_leafLevel + 1);
        for (unsigned level = 0; level <= _leafLevel; ++level)
            out[level] = _levelBase[level] + (leaf >> _levelShift[level]);
    }

    /**
     * Deepest level at which a block with label @p blockLeaf may be
     * placed on the path to @p pathLeaf (length of the common prefix).
     */
    unsigned
    commonLevel(LeafLabel blockLeaf, LeafLabel pathLeaf) const
    {
        const std::uint64_t diff = blockLeaf ^ pathLeaf;
        if (diff == 0)
            return _leafLevel;
        const unsigned bits = 64 - __builtin_clzll(diff);
        SB_ASSERT(bits <= _leafLevel, "label out of range");
        return _leafLevel - bits;
    }

    /** Flat index of a slot. */
    std::uint64_t
    slotIndex(BucketIndex bucket, unsigned slot) const
    {
        return bucket * _slots + slot;
    }

    Slot &
    slot(BucketIndex bucket, unsigned slot_)
    {
        return _store[slotIndex(bucket, slot_)];
    }

    const Slot &
    slot(BucketIndex bucket, unsigned slot_) const
    {
        return _store[slotIndex(bucket, slot_)];
    }

    bool payloadEnabled() const { return _payloadEnabled; }
    std::uint64_t payloadWords() const { return _payloadWords; }

    /** True when @p slotIdx holds a ciphertext.  Always false when
     *  payloads are disabled (there is no slab). */
    bool
    hasCipher(std::uint64_t slotIdx) const
    {
        return _payloadEnabled && _cipherNonce[slotIdx] != 0;
    }

    /**
     * Mutable slab view of a slot's ciphertext storage — the target
     * for (re-)encryption, fault injection and stuck-cell rewrites.
     * Always valid storage when payloads are enabled; writing a nonce
     * marks the slot occupied.
     */
    CipherRef
    cipherRef(std::uint64_t slotIdx)
    {
        SB_ASSERT(_payloadEnabled, "ciphertext slab disabled");
        return CipherRef(&_cipherNonce[slotIdx], &_cipherTag[slotIdx],
                         &_cipherLanes[slotIdx * _payloadWords],
                         _payloadWords);
    }

    /** Read-only slab view of an occupied slot's ciphertext. */
    CipherView
    cipherView(std::uint64_t slotIdx) const
    {
        SB_ASSERT(hasCipher(slotIdx), "no ciphertext at slot %llu",
                  static_cast<unsigned long long>(slotIdx));
        return CipherView(&_cipherNonce[slotIdx], &_cipherTag[slotIdx],
                          &_cipherLanes[slotIdx * _payloadWords],
                          _payloadWords);
    }

    /** Mark a slot's ciphertext storage empty.  The lane words are
     *  left as-is; they are dead until the next encryption and never
     *  serialized while the nonce is 0. */
    void
    eraseCipher(std::uint64_t slotIdx)
    {
        if (!_payloadEnabled)
            return;
        _cipherNonce[slotIdx] = 0;
        _cipherTag[slotIdx] = 0;
    }

    /** Count of slots holding a ciphertext. */
    std::uint64_t countCiphers() const;

    /** Count of occupied (real or shadow) slots in the whole tree. */
    std::uint64_t countOccupied() const;
    /** Count of real slots only. */
    std::uint64_t countReal() const;

    /** Serialize slots + ciphertext slab into a checkpoint section. */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    /** Restore from a checkpoint; geometry must match construction. */
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    unsigned _leafLevel;
    unsigned _slots;
    std::uint64_t _numBuckets;
    std::uint64_t _numLeaves;
    bool _payloadEnabled;
    std::uint64_t _payloadWords;
    std::vector<Slot> _store;
    /** Path→bucket tables: bucket(level, leaf) =
     *  _levelBase[level] + (leaf >> _levelShift[level]). */
    std::vector<BucketIndex> _levelBase;
    std::vector<unsigned> _levelShift;
    /** Ciphertext slabs, indexed by slot (lanes by
     *  slotIdx * _payloadWords).  Empty when payloads are disabled. */
    std::vector<std::uint64_t> _cipherNonce;
    std::vector<std::uint64_t> _cipherTag;
    std::vector<std::uint64_t> _cipherLanes;
};

} // namespace sboram

#endif // SBORAM_ORAM_ORAMTREE_HH
