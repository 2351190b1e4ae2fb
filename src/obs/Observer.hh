/**
 * @file
 * The per-run observability hub (DESIGN.md §9).
 *
 * One RunObserver is created by sim/System for each runSystem() call
 * whose ObsConfig enables anything, and is threaded (as a nullable
 * raw pointer) into the hot paths of the ORAM controller and the CPU
 * step hook.  When observability is off the pointer is null and
 * every hook site is a single predictable branch — the disabled path
 * adds no measurable overhead (perf_smoke asserts this).
 *
 * The observer owns the run's MetricRegistry, IntervalSampler and
 * TraceSession; close() renders both artifacts to
 * `<dir>/trace-<label>.json` and `<dir>/metrics-<label>.jsonl` and
 * registers the paths with the process-wide artifact log so the
 * bench manifest can enumerate them.
 *
 * A second, process-global facility records wall-clock runner lanes
 * (one Chrome-trace thread per ExperimentRunner worker, one X event
 * per executed point) which guardedMain flushes to
 * `trace-runner.json` at exit.
 */

#ifndef SBORAM_OBS_OBSERVER_HH
#define SBORAM_OBS_OBSERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "Metrics.hh"
#include "ObsConfig.hh"
#include "Trace.hh"
#include "ckpt/Serde.hh"

namespace sboram {
namespace obs {

class RunObserver
{
  public:
    explicit RunObserver(const ObsConfig &cfg);
    ~RunObserver();

    RunObserver(const RunObserver &) = delete;
    RunObserver &operator=(const RunObserver &) = delete;

    const ObsConfig &config() const { return _cfg; }

    /** Null when tracing is off; hot paths branch once on this. */
    TraceSession *trace() { return _trace.get(); }

    MetricRegistry &registry() { return _registry; }

    /**
     * Finish the metric wiring: every counter/gauge/histogram must be
     * registered before this call so the artifact column set is fixed
     * for the whole run (and matches across interrupt/resume).
     * Creates the sampler when metrics are enabled.
     */
    void sealRegistry();

    /**
     * Per-completed-access tick from the CPU step hook: feeds the
     * request-latency histogram and the interval sampler.  @p issue /
     * @p forward are the completed request's issue and data-forward
     * cycles.
     */
    void onAccessBoundary(std::uint64_t accessesDone,
                          std::uint64_t cycles, std::uint64_t issue,
                          std::uint64_t forward);

    /** Unconditional end-of-run sample (skipped if already taken). */
    void finalSample(std::uint64_t accessesDone, std::uint64_t cycles);

    /** Counter/sampler/histogram state for ckpt::kSectionObs. */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

    /**
     * Render and write the artifacts, record them in the process
     * artifact log, and log the run's wall-clock lane.  Idempotent;
     * not called on an interrupted (re-runnable) run.
     */
    void close();

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    ObsConfig _cfg;
    MetricRegistry _registry;
    std::unique_ptr<TraceSession> _trace;
    std::unique_ptr<IntervalSampler> _sampler;
    HistogramSink *_reqLatency = nullptr;

    unsigned _worker = 0;
    bool _closed = false;

    /** Wall-clock microseconds since process start (runner lanes). */
    std::uint64_t _wallStartUs = 0;
};

// ---------------------------------------------------------------------
// Process-wide plumbing
// ---------------------------------------------------------------------

/** Thread-local ExperimentRunner worker index (0 = inline/main). */
void setWorkerIndex(unsigned index);
unsigned workerIndex();

/** Wall-clock microseconds since the first obs call in this process. */
std::uint64_t wallMicros();

/**
 * Merge the SB_OBS_* environment knobs into @p cfg.  Flags already
 * set by the caller win; the env only turns things on for configs
 * that did not opt in programmatically.  Applies the process dir
 * override (--obs-dir) and defaults dir to ".".
 */
void applyEnv(ObsConfig &cfg);

/** --obs-dir: overrides SB_OBS_DIR for the whole process. */
void setDirOverride(const std::string &dir);

/** The process dir override, or empty when none is set. */
std::string dirOverride();

/** Stable artifact label: sanitized workload + config fingerprint. */
std::string makeLabel(const std::string &workload,
                      std::uint64_t fingerprint);

/** Record an artifact path for the manifest (thread-safe). */
void recordArtifact(const std::string &path);

/** All artifact paths recorded so far, in record order. */
std::vector<std::string> artifactLog();

/**
 * Write the wall-clock runner-lane trace (one tid per worker, one X
 * event per completed run) to @p path.  Returns false when nothing
 * was recorded or the file cannot be written.
 */
bool writeRunnerTrace(const std::string &path);

/** Whole-string → file helper shared by obs writers (0600-style
 *  portability is not a goal; plain ofstream semantics). */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_OBSERVER_HH
