/**
 * @file
 * ORAM tree partitioning between HD-Dup and RD-Dup (paper
 * Section IV-D).
 *
 * Levels [0, partitionLevel) — the root side, whose buckets lie on
 * many paths — are given to HD-Dup; levels [partitionLevel, L] to
 * RD-Dup.  A larger partition level assigns more dummy slots to
 * HD-Dup.
 *
 * Static partitioning fixes the level; dynamic partitioning drives it
 * with an n-bit saturating DRI counter updated per ORAM request:
 * dummy-after-real increments (long intervals — favour RD-Dup,
 * lower the level), real-after-real decrements (short intervals —
 * favour HD-Dup, raise the level).
 */

#ifndef SBORAM_SHADOW_PARTITIONCONTROLLER_HH
#define SBORAM_SHADOW_PARTITIONCONTROLLER_HH

#include <cstdint>

#include "ckpt/Serde.hh"
#include "common/SatCounter.hh"
#include "common/Types.hh"

namespace sboram {

class PartitionController
{
  public:
    /** Static partitioning at a fixed level. */
    static PartitionController
    fixed(unsigned level, unsigned maxLevel)
    {
        return PartitionController(level, maxLevel, 0);
    }

    /** Dynamic partitioning with an n-bit DRI counter. */
    static PartitionController
    dynamic(unsigned counterBits, unsigned maxLevel,
            unsigned initialLevel)
    {
        return PartitionController(initialLevel, maxLevel, counterBits);
    }

    unsigned level() const { return _level; }
    bool isDynamic() const { return _counterBits != 0; }
    std::uint32_t counterValue() const { return _counter.value(); }

    /**
     * Observe one completed ORAM request (real or dummy) and, in
     * dynamic mode, update the DRI counter and the partition level.
     */
    void
    onRequest(bool isDummy)
    {
        if (_counterBits == 0)
            return;
        if (isDummy && !_prevWasDummy)
            _counter.increment();
        else if (!isDummy && !_prevWasDummy)
            _counter.decrement();
        _prevWasDummy = isDummy;

        // Counter below half ⇒ intervals are short ⇒ HD-Dup helps ⇒
        // raise the partition level; and vice versa.
        if (_counter.belowHalf()) {
            if (_level < _maxLevel)
                ++_level;
        } else {
            if (_level > 0)
                --_level;
        }
    }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        std::uint32_t level = self._level;
        ar.u32(level);
        if constexpr (Ar::kLoading) {
            if (level > self._maxLevel)
                throw CkptMismatchError("partition level out of range");
            self._level = level;
        }
        ar.u8As(self._prevWasDummy);
        std::uint32_t counter = self._counter.value();
        ar.u32(counter);
        if constexpr (Ar::kLoading)
            self._counter.set(counter);
    }

    PartitionController(unsigned level, unsigned maxLevel,
                        unsigned counterBits)
        : _level(level), _maxLevel(maxLevel),
          _counterBits(counterBits),
          _counter(counterBits == 0 ? 1 : counterBits)
    {
        if (_level > _maxLevel)
            _level = _maxLevel;
        // Start the counter at half range so the first observations
        // steer it rather than an extreme initial state.
        _counter.set((_counter.max() + 1) / 2);
    }

    unsigned _level;
    unsigned _maxLevel;
    unsigned _counterBits;
    SatCounter _counter;
    bool _prevWasDummy = false;
};

} // namespace sboram

#endif // SBORAM_SHADOW_PARTITIONCONTROLLER_HH
