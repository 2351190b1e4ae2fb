/**
 * @file
 * DDR3 timing and geometry parameters.
 *
 * The paper evaluates with DRAMSim2 modelling DDR3-1333 on two
 * channels (Table I, 21.3 GB/s peak).  This model keeps the subset of
 * DDR3 timing that determines ORAM path-access latency: row
 * activate/precharge, column command spacing (tCCD per rank), CAS
 * latency, burst time and the shared per-channel data bus.
 *
 * All times are stored in CPU cycles.  At the paper's 2 GHz core and
 * 666.7 MHz DRAM clock, one memory clock is exactly 3 CPU cycles.
 */

#ifndef SBORAM_MEM_DRAMTIMING_HH
#define SBORAM_MEM_DRAMTIMING_HH

#include <cstdint>

#include "common/Types.hh"

namespace sboram {

/** DDR3 device timing expressed in CPU cycles. */
struct DramTiming
{
    /** CPU cycles per memory clock (2 GHz / 666.7 MHz = 3). */
    Cycles cpuPerMemClk = 3;

    Cycles tCL = 9 * 3;    ///< CAS (read) latency.
    Cycles tCWL = 7 * 3;   ///< CAS write latency.
    Cycles tRCD = 9 * 3;   ///< Activate to column command.
    Cycles tRP = 9 * 3;    ///< Precharge period.
    Cycles tRAS = 24 * 3;  ///< Activate to precharge.
    Cycles tRC = 33 * 3;   ///< Activate to activate, same bank.
    Cycles tCCD = 4 * 3;   ///< Column command spacing, same rank.
    Cycles tBURST = 4 * 3; ///< Data burst for one 64 B block.
    Cycles tWTR = 5 * 3;   ///< Write-to-read turnaround, same rank.
    Cycles tRTW = 2 * 3;   ///< Read-to-write turnaround (bus turn).
    Cycles tWR = 10 * 3;   ///< Write recovery before precharge.
    Cycles tRRD = 4 * 3;   ///< Activate to activate, same rank.

    /** Construct the DDR3-1333 preset used throughout the paper. */
    static constexpr DramTiming
    ddr3_1333()
    {
        return DramTiming{};
    }
};

/** Channel/rank/bank/row geometry. */
struct DramGeometry
{
    unsigned channels = 2;      ///< Table I: two memory channels.
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    std::uint64_t rowBytes = 8192;  ///< Row buffer per bank.
    static constexpr std::uint64_t blockBytes = kBlockBytes;

    std::uint64_t
    blocksPerRow() const
    {
        return rowBytes / blockBytes;
    }

    unsigned
    totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }
};

/**
 * Energy constants for the memory subsystem (paper Section VI: energy
 * parameters follow the methodology of Fletcher et al. [16]; the
 * absolute constants here are representative DDR3 datasheet values,
 * since the exact numbers in [16] are not reproduced in the paper).
 */
struct DramEnergy
{
    PicoJoules eActivate = 20000.0;  ///< One ACT+PRE pair.
    PicoJoules eRead = 13000.0;      ///< One 64 B read incl. I/O.
    PicoJoules eWrite = 14000.0;     ///< One 64 B write incl. I/O.
    /** Background power per channel, pJ per CPU cycle (0.25 W @2GHz). */
    PicoJoules pBackground = 125.0;
};

} // namespace sboram

#endif // SBORAM_MEM_DRAMTIMING_HH
