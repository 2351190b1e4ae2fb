/**
 * @file
 * Physical placement of ORAM tree buckets in DRAM.
 *
 * Implements the sub-tree data layout of Ren et al. [ISCA'13] that the
 * paper adopts ("to fully tap the potential of DRAM bandwidth, a
 * sub-tree layout is derived [11]").  Consecutive groups of
 * `subtreeLevels` tree levels are packed into one DRAM row so that a
 * path read touches few rows, and successive sub-trees along a path
 * are striped over channels/ranks/banks so their accesses overlap.
 */

#ifndef SBORAM_MEM_ADDRESSMAP_HH
#define SBORAM_MEM_ADDRESSMAP_HH

#include <cstdint>
#include <vector>

#include "DramTiming.hh"
#include "common/Logging.hh"
#include "common/Types.hh"

namespace sboram {

/** Physical coordinates of one 64 B block. */
struct DramCoord
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0;  ///< Block index within the row.
};

/**
 * Maps (bucket, slot) of a binary ORAM tree with Z slots per bucket
 * onto DramCoord using the sub-tree layout, and plain program
 * addresses onto DramCoord with a block-interleaved layout (used by
 * the insecure baseline).
 */
class AddressMap
{
  public:
    /**
     * @param geo DRAM geometry.
     * @param levels Number of tree levels (L + 1).
     * @param slotsPerBucket Z.
     */
    AddressMap(const DramGeometry &geo, unsigned levels,
               unsigned slotsPerBucket);

    /** Number of tree levels packed per sub-tree (per DRAM row). */
    unsigned subtreeLevels() const { return _subtreeLevels; }

    /**
     * Map slot 0 of @p bucket, which lies at tree level @p level
     * (levelOf(bucket), which path walks already know).  A bucket's
     * slots are contiguous in its row: slot s is this coordinate with
     * column + s, so a path access maps each bucket once.
     */
    SB_HOT DramCoord mapBucket(BucketIndex bucket, unsigned level) const;

    /** Map a tree slot to its physical location. */
    DramCoord mapSlot(BucketIndex bucket, unsigned slot) const;

    /** Map a flat block address (insecure baseline). */
    DramCoord mapFlat(Addr blockAddr) const;

    /** Level of a bucket in the heap-ordered tree (root = 0). */
    static unsigned
    levelOf(BucketIndex bucket)
    {
        unsigned level = 0;
        while (bucket >= (BucketIndex(2) << level) - 1)
            ++level;
        return level;
    }

  private:
    DramGeometry _geo;
    unsigned _levels;
    unsigned _slots;
    unsigned _subtreeLevels;
    std::uint64_t _bucketBytes;
    /** Sequence number of the first sub-tree of each group of
     *  subtreeLevels levels: sub-trees of earlier groups come first,
     *  then left to right within a group. */
    std::vector<std::uint64_t> _groupSeqBase;
};

} // namespace sboram

#endif // SBORAM_MEM_ADDRESSMAP_HH
