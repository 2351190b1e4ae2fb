/**
 * @file
 * Ground-truth position map.
 *
 * Functionally, every block (data or recursive position-map block)
 * always has exactly one current leaf label; this flat array is the
 * authoritative record.  The *timing* cost of looking a label up —
 * extra ORAM accesses for position-map blocks missing from the PLB —
 * is modelled separately by RecursivePosMap.
 */

#ifndef SBORAM_ORAM_POSITIONMAP_HH
#define SBORAM_ORAM_POSITIONMAP_HH

#include <cstdint>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Logging.hh"
#include "common/Types.hh"

namespace sboram {

class PositionMap
{
  public:
    explicit PositionMap(std::uint64_t numBlocks)
        : _labels(numBlocks, 0) {}

    LeafLabel
    lookup(Addr addr) const
    {
        SB_ASSERT(addr < _labels.size(), "posmap addr %llu out of range",
                  static_cast<unsigned long long>(addr));
        return _labels[addr];
    }

    void
    update(Addr addr, LeafLabel leaf)
    {
        SB_ASSERT(addr < _labels.size(), "posmap addr %llu out of range",
                  static_cast<unsigned long long>(addr));
        _labels[addr] = static_cast<std::uint32_t>(leaf);
    }

    std::uint64_t size() const { return _labels.size(); }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ckpt::fixedLength(ar, self._labels.size(),
                          "position-map size mismatch");
        for (auto &label : self._labels)
            ar.u32(label);
    }

    std::vector<std::uint32_t> _labels;
};

} // namespace sboram

#endif // SBORAM_ORAM_POSITIONMAP_HH
