/**
 * @file
 * The insecure baseline: a plain DRAM system with no ORAM.
 *
 * Every LLC miss becomes a single 64 B DRAM access through the same
 * DDR3 model.  Figures 11, 12 and 15 normalise against this system.
 */

#ifndef SBORAM_BASELINE_INSECUREMEMORY_HH
#define SBORAM_BASELINE_INSECUREMEMORY_HH

#include <algorithm>

#include "ckpt/Serde.hh"
#include "common/Errors.hh"
#include "common/Types.hh"
#include "mem/AddressMap.hh"
#include "mem/DramModel.hh"

namespace sboram {

class InsecureMemory
{
  public:
    /**
     * @param dram DDR3 model (not owned).
     * @param frontEndLatency Fixed controller pipeline latency added
     *        to every access.
     */
    InsecureMemory(DramModel &dram, Cycles frontEndLatency = 10)
        : _dram(dram),
          _map(dram.geometry(), 1, 1),
          _frontEndLatency(frontEndLatency)
    {
    }

    /** Result of one memory access. */
    struct Result
    {
        Cycles forwardAt = 0;
        Cycles completeAt = 0;
    };

    Result
    access(Addr addr, Op op, Cycles issueTime)
    {
        const Cycles start = std::max(issueTime, _freeAt);
        const Cycles done = _dram.accessSingle(
            start + _frontEndLatency, _map.mapFlat(addr),
            op == Op::Write);
        _busy += done - start;
        _freeAt = done;
        return Result{done, done};
    }

    Cycles freeAt() const { return _freeAt; }

    /** Cycles spent serving requests (paper Eq. 1's data access
     *  time). */
    Cycles busy() const { return _busy; }

    /** Checkpoint the busy time and the free-at cycle (kSectionMem). */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    /** Three words: busy time, last completion and free-at.  The last
     *  completion is always the free-at cycle; a section whose two
     *  copies disagree is rejected. */
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self._busy);
        Cycles lastComplete = self._freeAt;
        ar.u64(lastComplete);
        ar.u64(self._freeAt);
        if constexpr (Ar::kLoading) {
            if (lastComplete != self._freeAt)
                throw CkptMismatchError("the insecure memory's last "
                                        "completion and free-at cycle "
                                        "disagree");
        }
    }

    DramModel &_dram;
    AddressMap _map;
    Cycles _frontEndLatency;
    Cycles _freeAt = 0;
    Cycles _busy = 0;
};

} // namespace sboram

#endif // SBORAM_BASELINE_INSECUREMEMORY_HH
