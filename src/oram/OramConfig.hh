/**
 * @file
 * Configuration and derived geometry of the Tiny ORAM controller.
 *
 * Defaults follow Table I of the paper: Z = 5 slots per bucket,
 * eviction rate A = 5, 50 % DRAM utilisation, 64 KB PLB.  The
 * platform values the paper never varies are constants: 64 B blocks
 * (kBlockBytes), the 32-cycle AES-128 latency, the stash CAM hit and
 * the on-chip pipeline latency.  The data capacity is configurable;
 * the paper's 4 GB (L = 24) is supported but benchmarks default to a
 * scaled 64 MB tree (L = 18) — see DESIGN.md.
 */

#ifndef SBORAM_ORAM_ORAMCONFIG_HH
#define SBORAM_ORAM_ORAMCONFIG_HH

#include <cstdint>

#include "common/Logging.hh"
#include "common/Types.hh"
#include "fault/FaultInjector.hh"
#include "health/RecoveryManager.hh"

namespace sboram {

/** Position-map implementation selector. */
enum class PosMapMode : std::uint8_t
{
    OnChip,     ///< Whole position map on-chip (no extra accesses).
    Recursive,  ///< Unified recursive position map with a PLB [14].
};

struct OramConfig
{
    /** Number of program data blocks stored in the ORAM. */
    std::uint64_t dataBlocks = std::uint64_t(1) << 20;
    static constexpr std::uint64_t blockBytes = kBlockBytes;
    unsigned slotsPerBucket = 5;   ///< Z (Table I).
    unsigned evictionRate = 5;     ///< A (Table I).
    double utilization = 0.5;      ///< Valid blocks / total slots.
    unsigned stashCapacity = 200;  ///< M, real blocks [11], [14].

    PosMapMode posMapMode = PosMapMode::Recursive;
    std::uint64_t plbBytes = 64 * 1024;           ///< Table I.
    std::uint64_t onChipPosMapEntries = 1 << 14;  ///< Recursion cutoff.

    /** Levels of the tree held in an on-chip treetop cache (0 = off). */
    unsigned treetopLevels = 0;

    /** Model XOR compression of path reads (Section VI-D). */
    bool xorCompression = false;

    /** Keep and verify 64 B payloads (functional mode). */
    bool payloadEnabled = false;

    /**
     * Serve read requests from shadow copies found in the stash
     * without launching an ORAM access (HD-Dup's request avoidance).
     * Disabled by the trace-equality security test, which demands a
     * bit-identical external trace against baseline Tiny ORAM.
     */
    bool serveFromShadow = true;

    /**
     * Re-offer shadow copies (stash-resident and eviction-vacuumed)
     * to the duplication policy so they persist across bucket
     * rewrites.  Off = paper-literal candidates only (ablation).
     */
    bool recirculateShadows = true;

    static constexpr Cycles aesLatency = 32;      ///< Table I.
    static constexpr Cycles stashHitLatency = 2;  ///< CAM lookup.
    static constexpr Cycles onChipLatency = 10;   ///< Treetop / pipeline.

    /**
     * Deterministic fault injection into the untrusted memory
     * (payload mode only — faults corrupt stored ciphertexts).
     * rate 0 disables it and leaves every code path untouched.
     */
    FaultConfig fault;

    /**
     * Fail-operational recovery ladder (tier-1 slot quarantine and
     * tier-2 stash backpressure).  All-zero defaults disable both and
     * leave the access path byte-identical to earlier versions.
     */
    HealthConfig health;

    std::uint64_t seed = 1;

    /** Derived: leaf level L such that capacity and utilisation fit. */
    unsigned deriveLevels() const;

    /** Entries per position-map block (labels packed 4 B each). */
    std::uint64_t
    posMapFanout() const
    {
        return blockBytes / 4;
    }

    /** Total blocks including recursive position-map blocks. */
    std::uint64_t totalBlocks() const;
};

/** Fully derived geometry, computed once at controller construction. */
struct OramGeometry
{
    unsigned leafLevel = 0;       ///< L; levels are 0..L.
    std::uint64_t numLeaves = 0;  ///< 2^L.
    std::uint64_t numBuckets = 0; ///< 2^(L+1) - 1.
    std::uint64_t numSlots = 0;   ///< buckets * Z.
    std::uint64_t totalBlocks = 0;

    static OramGeometry derive(const OramConfig &cfg);
};

} // namespace sboram

#endif // SBORAM_ORAM_ORAMCONFIG_HH
