/**
 * @file
 * PosMap Lookaside Buffer (PLB) of Freecursive ORAM [14], adopted by
 * the paper's baseline (Table I: PLB 64KB).
 *
 * A set-associative on-chip cache of position-map *blocks*.  A hit
 * means the label for a program address is available without touching
 * the recursive position-map ORAM.
 */

#ifndef SBORAM_ORAM_PLB_HH
#define SBORAM_ORAM_PLB_HH

#include <cstdint>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Logging.hh"
#include "common/Types.hh"

namespace sboram {

class Plb
{
  public:
    /**
     * @param capacityBytes Total PLB size (64 KB in Table I).
     * @param blockBytes Size of one cached position-map block.
     * @param associativity Ways per set.
     */
    Plb(std::uint64_t capacityBytes, std::uint64_t blockBytes,
        unsigned associativity = 4);

    /** Probe for a position-map block; updates LRU on hit. */
    bool lookup(Addr pmBlockAddr);

    /** Install a position-map block (LRU victim within the set). */
    void insert(Addr pmBlockAddr);

    /** Invalidate everything (used by tests). */
    void clear();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    unsigned numSets() const { return _numSets; }
    unsigned associativity() const { return _assoc; }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self._useCounter);
        ar.u64(self._hits);
        ar.u64(self._misses);
        ckpt::fixedLength(ar, self._ways.size(), "PLB geometry mismatch");
        for (auto &w : self._ways) {
            ar.u8As(w.valid);
            ar.u64(w.tag);
            ar.u64(w.lastUse);
        }
    }

    std::vector<Way> _ways;  ///< _numSets * _assoc, set-major.
    unsigned _numSets;
    unsigned _assoc;
    std::uint64_t _useCounter = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace sboram

#endif // SBORAM_ORAM_PLB_HH
