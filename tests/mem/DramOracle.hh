/** Reference per-slot DRAM schedule for the DramModel tests. */

#ifndef SBORAM_TESTS_MEM_DRAMORACLE_HH
#define SBORAM_TESTS_MEM_DRAMORACLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/DramModel.hh"

namespace sboram::test {

/**
 * An independent per-slot statement of the DDR3 schedule: one
 * scheduleBlock per access over its own bank, rank and channel state,
 * exactly as DramModel scheduled every access before it grouped
 * same-row accesses into runs.  DramModel's run-granular schedule
 * must reproduce its completions and counters bit for bit.
 */
class ReferenceDram
{
  public:
    ReferenceDram(const DramTiming &timing, const DramGeometry &geo)
        : _timing(timing), _geo(geo), _banks(geo.totalBanks()),
          _ranks(geo.channels * geo.ranksPerChannel),
          _channels(geo.channels)
    {
    }

    /** DramModel::accessBatch, one slot at a time. */
    BatchTiming
    access(Cycles earliestStart, const std::vector<DramCoord> &coords,
           bool isWrite, bool compressedBus = false,
           unsigned busDivisor = 1)
    {
        Cycles busTime = _timing.tBURST;
        if (compressedBus && !isWrite && busDivisor > 1)
            busTime = std::max<Cycles>(1, _timing.tBURST / busDivisor);
        BatchTiming result;
        for (const DramCoord &c : coords) {
            const Cycles done =
                scheduleBlock(earliestStart, c, isWrite, busTime);
            result.completion.push_back(done);
            result.finish = std::max(result.finish, done);
        }
        return result;
    }

    const DramStats &stats() const { return _stats; }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycles nextColumnAt = 0;
        Cycles lastActivateAt = 0;
        Cycles prechargeOkAt = 0;
    };

    struct Rank
    {
        Cycles nextColumnAt = 0;
        Cycles lastActivateAt = 0;
        Cycles writeToReadOkAt = 0;
    };

    struct Channel
    {
        Cycles busFreeAt = 0;
        bool lastWasWrite = false;
    };

    Cycles
    scheduleBlock(Cycles earliestStart, const DramCoord &c,
                  bool isWrite, Cycles busTime)
    {
        Bank &bank =
            _banks[(static_cast<std::size_t>(c.channel) *
                        _geo.ranksPerChannel +
                    c.rank) *
                       _geo.banksPerRank +
                   c.bank];
        Rank &rank = _ranks[static_cast<std::size_t>(c.channel) *
                                _geo.ranksPerChannel +
                            c.rank];
        Channel &channel = _channels[c.channel];

        Cycles colReadyAt = std::max(earliestStart, bank.nextColumnAt);

        if (!bank.rowOpen || bank.openRow != c.row) {
            ++_stats.rowMisses;
            Cycles preAt = std::max(colReadyAt, bank.prechargeOkAt);
            Cycles actAt = bank.rowOpen ? preAt + _timing.tRP : preAt;
            actAt = std::max(actAt, bank.lastActivateAt + _timing.tRC);
            actAt = std::max(actAt, rank.lastActivateAt + _timing.tRRD);
            bank.rowOpen = true;
            bank.openRow = c.row;
            bank.lastActivateAt = actAt;
            rank.lastActivateAt = actAt;
            bank.prechargeOkAt = actAt + _timing.tRAS;
            colReadyAt = actAt + _timing.tRCD;
            ++_stats.activates;
        } else {
            ++_stats.rowHits;
        }

        Cycles colAt = std::max(colReadyAt, rank.nextColumnAt);
        if (!isWrite)
            colAt = std::max(colAt, rank.writeToReadOkAt);
        if (channel.lastWasWrite != isWrite)
            colAt += _timing.tRTW;

        const Cycles accessLatency = isWrite ? _timing.tCWL : _timing.tCL;
        if (colAt + accessLatency < channel.busFreeAt)
            colAt = channel.busFreeAt - accessLatency;

        rank.nextColumnAt = colAt + _timing.tCCD;
        const Cycles dataStart = colAt + accessLatency;
        const Cycles dataDone = dataStart + busTime;
        channel.busFreeAt = dataDone;
        channel.lastWasWrite = isWrite;

        if (isWrite) {
            ++_stats.writes;
            bank.prechargeOkAt =
                std::max(bank.prechargeOkAt, dataDone + _timing.tWR);
            rank.writeToReadOkAt = dataDone + _timing.tWTR;
        } else {
            ++_stats.reads;
        }
        return dataDone;
    }

    DramTiming _timing;
    DramGeometry _geo;
    std::vector<Bank> _banks;
    std::vector<Rank> _ranks;
    std::vector<Channel> _channels;
    DramStats _stats;
};

} // namespace sboram::test

#endif // SBORAM_TESTS_MEM_DRAMORACLE_HH
