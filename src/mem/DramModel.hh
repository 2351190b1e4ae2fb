/**
 * @file
 * Cycle-approximate DDR3 timing model.
 *
 * Stands in for DRAMSim2: it tracks per-bank row-buffer state, per-rank
 * column-command spacing (tCCD) and the shared per-channel data bus,
 * which together determine how long an ORAM path access takes and when
 * each individual block's data arrives at the controller — the arrival
 * time of the intended block (or its shadow copy) is the quantity the
 * whole paper is about.
 *
 * Simplifications relative to a full DRAM simulator (documented in
 * DESIGN.md): commands are scheduled greedily in request order (the
 * ORAM path order is fixed and public, so there is nothing for an
 * FR-FCFS scheduler to reorder), tFAW is not enforced, and refresh is
 * folded into the background term.
 */

#ifndef SBORAM_MEM_DRAMMODEL_HH
#define SBORAM_MEM_DRAMMODEL_HH

#include <cstdint>
#include <vector>

#include "AddressMap.hh"
#include "DramTiming.hh"
#include "ckpt/Serde.hh"
#include "common/Types.hh"

namespace sboram {

/** Aggregate DRAM activity statistics (feeds the energy model). */
struct DramStats
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;

    void
    reset()
    {
        *this = DramStats{};
    }
};

/** Result of scheduling a batch of block accesses. */
struct BatchTiming
{
    /** Data-complete time of each block, in input order. */
    std::vector<Cycles> completion;
    /** Time the last data beat finishes (batch done). */
    Cycles finish = 0;
};

/**
 * The DRAM device model.  All methods advance internal bank/bus state;
 * the caller owns request ordering.
 */
class DramModel
{
  public:
    DramModel(const DramTiming &timing, const DramGeometry &geometry);

    /**
     * Schedule a batch of block accesses in order.
     *
     * @param earliestStart First cycle any command may issue.
     * @param coords Physical block locations, in access order.
     * @param isWrite True for a write batch (path write).
     * @param compressedBus When true, model XOR compression: column
     *        commands and cell activity are unchanged but each block
     *        occupies only 1/Z of the data bus (the XOR result is the
     *        only full block that crosses the CPU-memory bus).
     * @param busDivisor Bus compression factor (Z) when compressedBus.
     */
    BatchTiming accessBatch(Cycles earliestStart,
                            const std::vector<DramCoord> &coords,
                            bool isWrite, bool compressedBus = false,
                            unsigned busDivisor = 1);

    /** Single 64 B access (insecure baseline). */
    Cycles accessSingle(Cycles earliestStart, const DramCoord &coord,
                        bool isWrite);

    const DramStats &stats() const { return _stats; }
    void resetStats() { _stats.reset(); }

    const DramTiming &timing() const { return _timing; }
    const DramGeometry &geometry() const { return _geo; }

    /** Checkpoint bank/rank/channel timing state and the counters. */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycles nextColumnAt = 0;   ///< Earliest column command.
        Cycles lastActivateAt = 0; ///< For tRC.
        Cycles prechargeOkAt = 0;  ///< tRAS / tWR recovery.
    };

    struct Rank
    {
        Cycles nextColumnAt = 0;   ///< tCCD spacing.
        Cycles lastActivateAt = 0; ///< tRRD spacing.
        Cycles writeToReadOkAt = 0;
    };

    struct Channel
    {
        Cycles busFreeAt = 0;
        bool lastWasWrite = false;
    };

    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ckpt::fixedLength(ar, self._banks.size(),
                          "DRAM bank count mismatch");
        for (auto &b : self._banks) {
            ar.u8As(b.rowOpen);
            ar.u64(b.openRow);
            ar.u64(b.nextColumnAt);
            ar.u64(b.lastActivateAt);
            ar.u64(b.prechargeOkAt);
        }
        ckpt::fixedLength(ar, self._ranks.size(),
                          "DRAM rank count mismatch");
        for (auto &r : self._ranks) {
            ar.u64(r.nextColumnAt);
            ar.u64(r.lastActivateAt);
            ar.u64(r.writeToReadOkAt);
        }
        ckpt::fixedLength(ar, self._channels.size(),
                          "DRAM channel count mismatch");
        for (auto &c : self._channels) {
            ar.u64(c.busFreeAt);
            ar.u8As(c.lastWasWrite);
        }
        ar.u64(self._stats.activates);
        ar.u64(self._stats.reads);
        ar.u64(self._stats.writes);
        ar.u64(self._stats.rowHits);
        ar.u64(self._stats.rowMisses);
    }

    /** Schedule one block; returns its data-complete time. */
    Cycles scheduleBlock(Cycles earliestStart, const DramCoord &c,
                         bool isWrite, Cycles busTime);

    Bank &bankOf(const DramCoord &c);
    Rank &rankOf(const DramCoord &c);

    DramTiming _timing;
    DramGeometry _geo;
    std::vector<Bank> _banks;
    std::vector<Rank> _ranks;
    std::vector<Channel> _channels;
    DramStats _stats;
};

} // namespace sboram

#endif // SBORAM_MEM_DRAMMODEL_HH
