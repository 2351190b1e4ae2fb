#include "AddressMap.hh"

namespace sboram {

AddressMap::AddressMap(const DramGeometry &geo, unsigned levels,
                       unsigned slotsPerBucket)
    : _geo(geo), _levels(levels), _slots(slotsPerBucket),
      _bucketBytes(geo.blockBytes * slotsPerBucket)
{
    SB_ASSERT(levels >= 1, "tree needs at least one level");
    SB_ASSERT(_bucketBytes <= geo.rowBytes,
              "bucket (%llu B) larger than a DRAM row",
              static_cast<unsigned long long>(_bucketBytes));

    // Largest s such that a full s-level sub-tree (2^s - 1 buckets)
    // fits in one row.
    unsigned s = 1;
    while (s + 1 <= 16 &&
           ((std::uint64_t(1) << (s + 1)) - 1) * _bucketBytes <=
               geo.rowBytes) {
        ++s;
    }
    _subtreeLevels = s;

    // Group g's sub-trees are rooted at level g * s, one per bucket
    // of that level.
    std::uint64_t seq = 0;
    for (unsigned rootLevel = 0; rootLevel < levels; rootLevel += s) {
        _groupSeqBase.push_back(seq);
        seq += BucketIndex(1) << rootLevel;
    }
}

SB_HOT DramCoord
AddressMap::mapBucket(BucketIndex bucket, unsigned level) const
{
    SB_ASSERT(level < _levels, "level %u beyond the tree", level);

    // Index of the bucket within its level (0-based, left to right).
    const BucketIndex withinLevel =
        bucket - ((BucketIndex(1) << level) - 1);

    // The sub-tree containing this bucket is rooted at the bucket's
    // ancestor at level `group * subtreeLevels`.
    const unsigned group = level / _subtreeLevels;
    const unsigned depthInSub = level - group * _subtreeLevels;
    const BucketIndex rootWithinLevel = withinLevel >> depthInSub;
    const std::uint64_t seq = _groupSeqBase[group] + rootWithinLevel;

    // Position of the bucket inside its sub-tree, heap order.
    const BucketIndex localWithin =
        withinLevel - (rootWithinLevel << depthInSub);
    const std::uint64_t localIndex =
        ((std::uint64_t(1) << depthInSub) - 1) + localWithin;

    DramCoord c;
    c.channel = static_cast<unsigned>(seq % _geo.channels);
    std::uint64_t rest = seq / _geo.channels;
    c.rank = static_cast<unsigned>(rest % _geo.ranksPerChannel);
    rest /= _geo.ranksPerChannel;
    c.bank = static_cast<unsigned>(rest % _geo.banksPerRank);
    c.row = rest / _geo.banksPerRank;
    c.column = localIndex * _slots;
    return c;
}

DramCoord
AddressMap::mapSlot(BucketIndex bucket, unsigned slot) const
{
    SB_ASSERT(slot < _slots, "slot %u out of range", slot);
    DramCoord c = mapBucket(bucket, levelOf(bucket));
    c.column += slot;
    return c;
}

DramCoord
AddressMap::mapFlat(Addr blockAddr) const
{
    DramCoord c;
    c.channel = static_cast<unsigned>(blockAddr % _geo.channels);
    std::uint64_t rest = blockAddr / _geo.channels;
    c.rank = static_cast<unsigned>(rest % _geo.ranksPerChannel);
    rest /= _geo.ranksPerChannel;
    c.bank = static_cast<unsigned>(rest % _geo.banksPerRank);
    rest /= _geo.banksPerRank;
    c.column = rest % _geo.blocksPerRow();
    c.row = rest / _geo.blocksPerRow();
    return c;
}

} // namespace sboram
