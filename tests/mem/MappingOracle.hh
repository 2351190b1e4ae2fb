/** Reference sub-tree slot mapping for the AddressMap tests. */

#ifndef SBORAM_TESTS_MEM_MAPPINGORACLE_HH
#define SBORAM_TESTS_MEM_MAPPINGORACLE_HH

#include <cstdint>

#include "mem/AddressMap.hh"

namespace sboram::test {

/**
 * An independent per-slot statement of the sub-tree mapping: level by
 * heap index, sub-tree sequence by summing the roots of every earlier
 * group, column by slot.  The oracle AddressMap's per-bucket mapping
 * (and mapSlot on top of it) must reproduce bit for bit.
 */
inline DramCoord
referenceMapSlot(const DramGeometry &geo, unsigned levels,
                 unsigned slots, unsigned subtreeLevels,
                 BucketIndex bucket, unsigned slot)
{
    const unsigned level = AddressMap::levelOf(bucket);
    const BucketIndex withinLevel =
        bucket - ((BucketIndex(1) << level) - 1);
    const unsigned group = level / subtreeLevels;
    const unsigned rootLevel = group * subtreeLevels;
    const unsigned depthInSub = level - rootLevel;
    const BucketIndex rootWithinLevel = withinLevel >> depthInSub;

    std::uint64_t seq = 0;
    for (unsigned g = 0; g < group; ++g) {
        const unsigned gl = g * subtreeLevels;
        if (gl < levels)
            seq += BucketIndex(1) << gl;
    }
    seq += rootWithinLevel;

    const BucketIndex localWithin =
        withinLevel - (rootWithinLevel << depthInSub);
    const std::uint64_t localIndex =
        ((std::uint64_t(1) << depthInSub) - 1) + localWithin;

    DramCoord c;
    c.channel = static_cast<unsigned>(seq % geo.channels);
    std::uint64_t rest = seq / geo.channels;
    c.rank = static_cast<unsigned>(rest % geo.ranksPerChannel);
    rest /= geo.ranksPerChannel;
    c.bank = static_cast<unsigned>(rest % geo.banksPerRank);
    c.row = rest / geo.banksPerRank;
    c.column = localIndex * slots + slot;
    return c;
}

inline bool
sameCoord(const DramCoord &a, const DramCoord &b)
{
    return a.channel == b.channel && a.rank == b.rank &&
           a.bank == b.bank && a.row == b.row && a.column == b.column;
}

/**
 * Over trees of L = 0..@p maxLeafLevel with @p slots slots per
 * bucket, count the (bucket, slot) pairs where slot s of
 * mapBucket(b, levelOf(b)) or mapSlot(b, s) differs from the
 * reference mapping.
 */
inline std::uint64_t
bucketMappingMismatches(const DramGeometry &geo, unsigned slots,
                        unsigned maxLeafLevel = 20)
{
    std::uint64_t mismatches = 0;
    for (unsigned leafLevel = 0; leafLevel <= maxLeafLevel;
         ++leafLevel) {
        const unsigned levels = leafLevel + 1;
        const AddressMap map(geo, levels, slots);
        const BucketIndex buckets = (BucketIndex(2) << leafLevel) - 1;
        for (BucketIndex b = 0; b < buckets; ++b) {
            const DramCoord base =
                map.mapBucket(b, AddressMap::levelOf(b));
            for (unsigned s = 0; s < slots; ++s) {
                const DramCoord want = referenceMapSlot(
                    geo, levels, slots, map.subtreeLevels(), b, s);
                DramCoord viaBucket = base;
                viaBucket.column += s;
                if (!sameCoord(viaBucket, want) ||
                    !sameCoord(map.mapSlot(b, s), want))
                    ++mismatches;
            }
        }
    }
    return mismatches;
}

} // namespace sboram::test

#endif // SBORAM_TESTS_MEM_MAPPINGORACLE_HH
