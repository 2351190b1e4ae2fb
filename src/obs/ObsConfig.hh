/**
 * @file
 * Per-run observability configuration (DESIGN.md §9).
 *
 * Lives in its own header so sim/System.hh can embed an ObsConfig in
 * SystemConfig without pulling the whole observer machinery into
 * every translation unit.
 *
 * The struct is deliberately *not* part of configFingerprint:
 * observability must never change a point's identity or its results —
 * a traced run and an untraced run of the same point are the same
 * experiment.
 */

#ifndef SBORAM_OBS_OBSCONFIG_HH
#define SBORAM_OBS_OBSCONFIG_HH

#include <cstdint>
#include <string>

namespace sboram {
namespace obs {

struct ObsConfig
{
    /** Emit a Chrome trace-event JSON artifact for the run. */
    bool trace = false;
    /** Emit the interval-sampled metrics JSONL artifact. */
    bool metrics = false;

    /** Sampling cadence in completed accesses. */
    std::uint64_t interval = 1000;

    /** Artifact directory; empty means the process obs dir. */
    std::string dir;

    /**
     * Artifact basename component (trace-<label>.json).  Assigned by
     * the ExperimentRunner from (workload, config fingerprint) when
     * left empty, so the name is stable across thread counts and
     * relaunches.
     */
    std::string label;

    bool any() const { return trace || metrics; }
};

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_OBSCONFIG_HH
