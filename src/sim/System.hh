/**
 * @file
 * Whole-system simulation: workload → CPU model → (timing-protected)
 * ORAM controller or insecure memory → DDR3 — and the metric
 * decomposition the paper's figures report.
 *
 * Total execution time = data access time + DRI (paper Eq. 1):
 * data access time is the time the memory system spends serving real
 * (data) ORAM requests; everything else — compute gaps the controller
 * sits idle through and dummy timing-protection requests — is the
 * Data Request Interval.
 */

#ifndef SBORAM_SIM_SYSTEM_HH
#define SBORAM_SIM_SYSTEM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/Checkpoint.hh"
#include "common/Types.hh"
#include "cpu/CpuModel.hh"
#include "obs/ObsConfig.hh"
#include "mem/DramModel.hh"
#include "mem/DramTiming.hh"
#include "oram/OramConfig.hh"
#include "oram/Stash.hh"
#include "oram/TinyOram.hh"
#include "shadow/ShadowPolicy.hh"
#include "workload/Workload.hh"

namespace sboram {

/** Which memory system backs the CPU. */
enum class Scheme : std::uint8_t
{
    Insecure,  ///< Plain DRAM, no protection.
    Tiny,      ///< Tiny ORAM baseline.
    Shadow,    ///< Tiny ORAM + Shadow Block duplication.
};

/** Which CPU front-end issues the trace. */
enum class CpuKind : std::uint8_t { InOrder, OutOfOrder };

/** Everything needed to run one experiment point. */
struct SystemConfig
{
    Scheme scheme = Scheme::Tiny;
    OramConfig oram;
    ShadowConfig shadow;
    /** DDR3-1333 on 2 channels x 2 ranks x 8 banks, 8 KB rows
     *  (Table I): fixed, so every run models the same memory. */
    static constexpr DramTiming dramTiming = DramTiming::ddr3_1333();
    static constexpr DramGeometry dramGeometry{};

    bool timingProtection = false;
    /** Fixed request rate in cycles; 0 = auto from path latency. */
    Cycles tpInterval = 0;
    /** Classify long idle gaps as virtual dummy requests so dynamic
     *  partitioning works without timing protection (DESIGN.md). */
    bool virtualDummies = true;

    CpuKind cpu = CpuKind::InOrder;
    unsigned cores = 4;   ///< For OutOfOrder.
    unsigned window = 8;  ///< Reorder window per core.

    /** Record each miss's data-forward time (Fig. 6 needs the
     *  per-miss execution-time curve). */
    bool recordPerMiss = false;

    /**
     * Opt-in invariant watchdog: run the full InvariantChecker walk
     * every N served ORAM requests and throw
     * InvariantViolationError on the first violation.  0 disables it
     * (the walk is O(tree), so this is for debugging and fault
     * studies, not performance sweeps).
     */
    std::uint64_t watchdogInterval = 0;

    /**
     * Write a crash-consistent snapshot every N served memory
     * requests when a CheckpointSession is attached (see the
     * three-argument runSystem).  0 = snapshot only on stop signals.
     * Not part of the point fingerprint: any cadence resumes to the
     * same final metrics.
     */
    std::uint64_t checkpointInterval = 0;

    /**
     * Test seam: after N memory requests, write a final snapshot (if
     * a session is attached) and throw InterruptedError, whose
     * message says whether a snapshot was written — a deterministic
     * stand-in for SIGKILL/SIGINT arriving mid-run.  0 disables.  Not
     * part of the point fingerprint.
     */
    std::uint64_t interruptAfterAccesses = 0;

    /**
     * Tier-3 of the recovery ladder: when a CorruptionError escapes
     * the in-ORAM tiers and a CheckpointSession is attached, restore
     * the latest valid snapshot generation and deterministically
     * replay the cursor (with the fault schedule shifted to its next
     * realization) instead of dying — up to this many times per run.
     * 0 (default) disables auto-rollback and preserves the historic
     * fail-fast behavior.  Part of the point fingerprint: rollbacks
     * change the fault realization and hence the final counters.
     */
    unsigned maxAutoRollbacks = 0;

    /**
     * Observability (DESIGN.md §9): event tracing and interval-sampled
     * metrics.  Both off by default; the ExperimentRunner merges the
     * SB_OBS_* environment knobs in.  Not part of the
     * point fingerprint — observing a run never changes its results.
     */
    obs::ObsConfig obs;
};

/**
 * Everything the benches need from one run: what the run measures
 * itself, plus the controller's own counters carried whole (both
 * zero for an Insecure run).
 */
struct RunMetrics
{
    Cycles execTime = 0;
    double dataAccessTime = 0.0;  ///< Eq. 1 first term.
    double driTime = 0.0;         ///< Eq. 1 second term.
    std::uint64_t requests = 0;   ///< The CPU's reads + writes.
    PicoJoules energy = 0.0;      ///< Fig. 12.
    unsigned finalPartitionLevel = 0;
    std::uint64_t rollbacks = 0;  ///< Tier-3 auto-rollbacks.
    /** Trace records replayed across all rollbacks (MTTR numerator:
     *  replayedAccesses / rollbacks = mean replay distance). */
    std::uint64_t replayedAccesses = 0;
    /** Per-miss forward times, in trace order (recordPerMiss). */
    std::vector<Cycles> missRetireTimes;
    OramStats oram;
    StashStats stash;

    /** Fig. 16: the share of requests served by on-chip state. */
    double
    onChipHitRate() const
    {
        return requests ? static_cast<double>(oram.onChipHits) /
                              static_cast<double>(requests)
                        : 0.0;
    }
};

/** Build an LLC-miss trace for a named SPEC-like workload. */
std::vector<LlcMissRecord> makeTrace(const std::string &workload,
                                     std::uint64_t misses,
                                     std::uint64_t seed);

/**
 * Run one experiment point: the given trace through the configured
 * CPU and memory system.  For OutOfOrder CPUs the trace is replicated
 * per core with per-core address offsets (the paper duplicates the
 * benchmark across cores).
 */
RunMetrics runSystem(const SystemConfig &cfg,
                     const std::vector<LlcMissRecord> &trace);

/**
 * Checkpoint-aware variant.  With a non-null @p session the run first
 * tries to resume from the newest valid snapshot (falling back to the
 * previous generation, then to a clean start), then periodically
 * persists its full state per SystemConfig::checkpointInterval and on
 * stop signals.  A resumed run produces metrics bit-identical to an
 * uninterrupted one.  Throws InterruptedError when a stop was
 * requested, after the final snapshot unless the pre-commit scrub
 * vetoed it (sim/RunFrame).
 */
RunMetrics runSystem(const SystemConfig &cfg,
                     const std::vector<LlcMissRecord> &trace,
                     ckpt::CheckpointSession *session);

/** Convenience: generate the trace and run. */
RunMetrics runWorkload(const SystemConfig &cfg,
                       const std::string &workload,
                       std::uint64_t misses, std::uint64_t seed);

/**
 * 64-bit fingerprint over every semantic field of @p cfg — the
 * fields that determine the run's outcome.  checkpointInterval,
 * interruptAfterAccesses and obs are deliberately excluded so a
 * resumed run (different cadence, different interruption point,
 * different observability) addresses the same checkpoint files.
 */
std::uint64_t configFingerprint(const SystemConfig &cfg);

/** Serialize final RunMetrics (bit-exact doubles) for .done markers. */
void saveRunMetrics(ckpt::Serializer &out, const RunMetrics &m);
RunMetrics loadRunMetrics(ckpt::Deserializer &in);

} // namespace sboram

#endif // SBORAM_SIM_SYSTEM_HH
