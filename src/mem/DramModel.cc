#include "DramModel.hh"

#include <algorithm>

namespace sboram {

DramModel::DramModel(const DramTiming &timing,
                     const DramGeometry &geometry)
    : _timing(timing), _geo(geometry),
      _banks(geometry.totalBanks()),
      _ranks(geometry.channels * geometry.ranksPerChannel),
      _channels(geometry.channels)
{
}

DramModel::Bank &
DramModel::bankOf(const DramCoord &c)
{
    const std::size_t idx =
        (static_cast<std::size_t>(c.channel) * _geo.ranksPerChannel +
         c.rank) * _geo.banksPerRank + c.bank;
    return _banks[idx];
}

DramModel::Rank &
DramModel::rankOf(const DramCoord &c)
{
    return _ranks[static_cast<std::size_t>(c.channel) *
                  _geo.ranksPerChannel + c.rank];
}

SB_HOT Cycles
DramModel::scheduleBlock(Cycles earliestStart, const DramCoord &c,
                         bool isWrite, Cycles busTime)
{
    ++_scheduleSteps;
    Bank &bank = bankOf(c);
    Rank &rank = rankOf(c);
    Channel &channel = _channels[c.channel];

    Cycles colReadyAt = std::max(earliestStart, bank.nextColumnAt);

    // Row management.
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

    // Column command constraints: tCCD on the rank, bus turnaround,
    // write-to-read recovery, and the shared data bus.
    Cycles colAt = std::max(colReadyAt, rank.nextColumnAt);
    if (!isWrite)
        colAt = std::max(colAt, rank.writeToReadOkAt);
    if (channel.lastWasWrite != isWrite)
        colAt += _timing.tRTW;

    const Cycles accessLatency = isWrite ? _timing.tCWL : _timing.tCL;
    // The data burst must find the bus free.
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

SB_HOT DramRun
DramModel::scheduleRun(Cycles earliestStart, const DramCoord &coord0,
                       unsigned n, bool isWrite, Cycles busTime)
{
    SB_ASSERT(n >= 1, "empty DRAM run");
    DramRun run;
    run.first = scheduleBlock(earliestStart, coord0, isWrite, busTime);
    run.stride = runStride(busTime);
    if (n == 1)
        return run;

    // Accesses 1..n-1 hit the row access 0 left open, in the same
    // direction, so no turnaround or write-to-read term applies.
    // Access 0's column time already dominates earliestStart, the
    // bank's column bound and writeToReadOkAt, leaving tCCD after the
    // previous column command and the data bus after the previous
    // burst: each access lands exactly one stride after the last.
    const std::uint64_t hits = n - 1;
    const Cycles span = hits * run.stride;
    const Cycles last = run.last(n);
    Rank &rank = rankOf(coord0);
    _stats.rowHits += hits;
    rank.nextColumnAt += span;
    _channels[coord0.channel].busFreeAt = last;
    if (isWrite) {
        _stats.writes += hits;
        Bank &bank = bankOf(coord0);
        bank.prechargeOkAt =
            std::max(bank.prechargeOkAt, last + _timing.tWR);
        rank.writeToReadOkAt = last + _timing.tWTR;
    } else {
        _stats.reads += hits;
    }
    return run;
}

Cycles
DramModel::busTimeFor(bool isWrite, bool compressedBus,
                      unsigned busDivisor) const
{
    if (compressedBus && !isWrite && busDivisor > 1)
        return std::max<Cycles>(1, _timing.tBURST / busDivisor);
    return _timing.tBURST;
}

namespace {

bool
sameRow(const DramCoord &a, const DramCoord &b)
{
    return a.channel == b.channel && a.rank == b.rank &&
           a.bank == b.bank && a.row == b.row;
}

} // namespace

BatchTiming
DramModel::accessBatch(Cycles earliestStart,
                       const std::vector<DramCoord> &coords,
                       bool isWrite, bool compressedBus,
                       unsigned busDivisor)
{
    BatchTiming result;
    result.completion.reserve(coords.size());
    const Cycles busTime =
        busTimeFor(isWrite, compressedBus, busDivisor);

    for (std::size_t i = 0; i < coords.size();) {
        std::size_t end = i + 1;
        while (end < coords.size() && sameRow(coords[end], coords[i]))
            ++end;
        const unsigned n = static_cast<unsigned>(end - i);
        const DramRun run =
            scheduleRun(earliestStart, coords[i], n, isWrite, busTime);
        for (unsigned k = 0; k < n; ++k)
            result.completion.push_back(run.first + k * run.stride);
        result.finish = std::max(result.finish, run.last(n));
        i = end;
    }
    return result;
}

Cycles
DramModel::accessSingle(Cycles earliestStart, const DramCoord &coord,
                        bool isWrite)
{
    return scheduleRun(earliestStart, coord, 1, isWrite,
                       _timing.tBURST)
        .first;
}

} // namespace sboram
