/**
 * @file
 * Fail-operational recovery ladder shared by the ORAM access path.
 *
 * PR 2's fault subsystem heals one-shot corruption in place (tier 0:
 * same-version shadow copies).  Persistent backend failures need more
 * than healing: a stuck cell re-corrupts every block placed into it,
 * and a long fault storm can pin blocks in the stash until occupancy
 * becomes a liveness problem.  The RecoveryManager owns the two
 * mid-ladder mechanisms:
 *
 *  - Tier 1, slot quarantine: a deterministic failure-count table over
 *    global slot indexes.  Every *detected* corruption (the injector's
 *    schedule is PRF-deterministic, so the counts are reproducible
 *    bit-for-bit) increments the slot's count; at the configured
 *    threshold the slot is quarantined.  A quarantined slot is
 *    *remapped*, not retired: it keeps participating in placement
 *    exactly like a healthy slot, but its payload is diverted into
 *    TinyOram's on-chip spare store instead of the bad ciphertext
 *    stripe (the DRAM-sparing analogue of remapping a bad row).
 *    Retiring slots from placement would shrink tree capacity and
 *    leak fault state through stash occupancy and the stash-hit
 *    pattern; remapping keeps capacity — and therefore the external
 *    access trace — fault-independent by construction.
 *
 *  - Tier 2, stash backpressure: a hysteretic high/low watermark pair
 *    on *real* stash occupancy.  Crossing the high watermark enters a
 *    degraded mode in which TinyOram runs emergency background
 *    eviction sweeps and suppresses shadow duplication so shadows do
 *    not compete with reals for bucket space; the low watermark exits.
 *    Degradation costs simulated cycles, never obliviousness: the
 *    externally observable access trace stays bit-identical because a
 *    clean run under the same health config follows the same
 *    occupancy trajectory (tests/security/FaultObliviousnessTest.cc).
 *
 * Tier 3 (checkpoint auto-rollback on unrecoverable corruption) lives
 * in sim/System; this class only carries the state the lower tiers
 * need, and serializes it into the snapshot so resumed runs keep
 * their quarantine set and latches (kSnapshotVersion 4).
 *
 * The online service layer (src/svc) adds a second pressure source:
 * admission-queue watermarks latch *service pressure*, which joins
 * tier 2 in suppressing shadow duplication (duplicationSuppressed())
 * but deliberately does NOT trigger emergency eviction sweeps —
 * sweeps add path accesses to the external trace, and service load
 * must never perturb the trace (DESIGN.md §12).
 */

#ifndef SBORAM_HEALTH_RECOVERY_MANAGER_HH
#define SBORAM_HEALTH_RECOVERY_MANAGER_HH

#include <cstdint>
#include <vector>

#include "ckpt/Serde.hh"

namespace sboram {

/**
 * Knobs for tiers 1 and 2.  All default to 0 (disabled) so existing
 * configurations keep byte-identical behavior; every field is part of
 * the experiment-point fingerprint.
 */
struct HealthConfig
{
    /** Detected-corruption count at which a slot is quarantined.
     *  0 disables quarantine. */
    unsigned quarantineThreshold = 0;

    /** Real-stash occupancy that enters degraded mode.  0 disables
     *  backpressure. */
    unsigned stashHighWatermark = 0;

    /** Occupancy at or below which degraded mode exits (hysteresis;
     *  must be < stashHighWatermark when backpressure is enabled). */
    unsigned stashLowWatermark = 0;

    bool quarantineEnabled() const { return quarantineThreshold > 0; }
    bool backpressureEnabled() const { return stashHighWatermark > 0; }
    bool enabled() const
    {
        return quarantineEnabled() || backpressureEnabled();
    }
};

/**
 * Mechanism state for the quarantine table and the degraded-mode
 * latch.  Policy counters (slots quarantined, degraded entries, sweep
 * counts) live in OramStats next to the fault counters so they ride
 * the existing stats serialization and obs gauges.
 */
class RecoveryManager
{
  public:
    RecoveryManager(const HealthConfig &cfg, std::uint64_t numSlots);

    const HealthConfig &config() const { return _cfg; }

    /**
     * Record a detected corruption of @p slotIdx.  Returns true when
     * this failure pushed the slot over the threshold (it is now
     * quarantined); callers count the transition in OramStats.
     */
    bool recordSlotFailure(std::uint64_t slotIdx);

    /** Fast-path probe used by the write path's spare-store
     *  diversion and the scrubber. */
    bool isQuarantined(std::uint64_t slotIdx) const
    {
        return !_quarantined.empty() && _quarantined[slotIdx] != 0;
    }

    bool quarantineActive() const { return _quarantinedCount > 0; }
    std::uint64_t quarantinedCount() const { return _quarantinedCount; }

    /**
     * Update the degraded-mode latch from the current real-stash
     * occupancy.  Returns +1 when this call entered degraded mode,
     * -1 when it exited, 0 otherwise.
     */
    int noteStashOccupancy(std::uint64_t realCount);

    bool degraded() const { return _degraded; }

    /**
     * Latch or release service-layer pressure (admission-queue
     * watermarks in src/svc).  Returns +1 when this call set the
     * latch, -1 when it cleared it, 0 when nothing changed.
     */
    int noteServicePressure(bool active);

    bool servicePressure() const { return _servicePressure; }

    /**
     * True when shadow duplication must pause: either the tier-2
     * stash latch or the service-pressure latch is set.  Suppressing
     * duplication only changes *which* already-on-path blocks carry
     * shadow copies — it never adds or removes path accesses, so
     * both latches are invisible in the external trace.
     */
    bool duplicationSuppressed() const
    {
        return _degraded || _servicePressure;
    }

    /** Snapshot serde; appended to the ORAM section (version 4). */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    HealthConfig _cfg;
    /** Per-slot detected-failure counts; empty unless quarantine is
     *  enabled, so disabled configs pay one vector-empty test. */
    std::vector<std::uint32_t> _failures;
    std::vector<std::uint8_t> _quarantined;
    std::uint64_t _quarantinedCount = 0;
    bool _degraded = false;
    bool _servicePressure = false;
};

} // namespace sboram

#endif // SBORAM_HEALTH_RECOVERY_MANAGER_HH
