/**
 * @file
 * Online service mode: a fail-operational request pipeline in front
 * of the ORAM controller (DESIGN.md §12).
 *
 * The batch path (sim/System) replays a fixed LLC-miss trace; the
 * service layer instead serves an *open-loop* arrival stream
 * (workload/Arrivals.hh) through a bounded admission queue with
 * watermark backpressure, per-request deadlines, deterministic
 * same-address dedup, and structured overload shedding — a request
 * always ends in exactly one terminal outcome (completed or shed with
 * a reason), never a silent drop or a hang.
 *
 * Scheduling is virtual-time discrete-event and single-threaded per
 * experiment point ("lock-light by ownership"): there is no shared
 * mutable scheduler state, so cross-point parallelism in the benches
 * comes for free from the ExperimentRunner and every artifact is
 * byte-identical at any SB_BENCH_THREADS.
 *
 * Two contracts the layer must preserve:
 *  - determinism: the full outcome (per-request latencies, shed
 *    decisions, backpressure transitions) is a pure function of the
 *    ServiceConfig;
 *  - trace neutrality: the externally visible access trace is a pure
 *    function of the issued control sequence (exposed via
 *    ControlRecord), and service pressure only ever suppresses shadow
 *    duplication — it never adds or removes path accesses.
 */

#ifndef SBORAM_SVC_SERVICE_HH
#define SBORAM_SVC_SERVICE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/Checkpoint.hh"
#include "common/Types.hh"
#include "mem/DramModel.hh"
#include "mem/DramTiming.hh"
#include "obs/ObsConfig.hh"
#include "obs/RequestTrace.hh"
#include "obs/Slo.hh"
#include "oram/TinyOram.hh"
#include "shadow/ShadowPolicy.hh"
#include "sim/System.hh"
#include "workload/Arrivals.hh"

namespace sboram {

namespace obs {
class RunObserver;
}

namespace svc {

/** Why a request was shed (the structured terminal outcome). */
enum class ShedReason : std::uint8_t
{
    AdmissionFull,      ///< Bounded queue was full on arrival.
    DeadlineExhausted,  ///< Deadline expired with no retries left.
};

/** Everything needed to run one service experiment point. */
struct ServiceConfig
{
    /** Memory system under the pipeline (Insecure is not supported —
     *  the service layer is an ORAM front end). */
    Scheme scheme = Scheme::Shadow;
    OramConfig oram;
    ShadowConfig shadow;
    DramTiming dramTiming = DramTiming::ddr3_1333();
    DramGeometry dramGeometry;

    ArrivalConfig arrivals;

    /** Arrivals to serve (the run resolves exactly this many). */
    std::uint64_t requests = 4000;

    /** Bounded admission queue capacity; arrivals beyond it shed. */
    std::uint64_t queueCapacity = 64;
    /** Queue depth at which service pressure latches (suppressing
     *  shadow duplication via the RecoveryManager); 0 disables. */
    std::uint64_t queueHighWatermark = 48;
    /** Depth at or below which service pressure releases. */
    std::uint64_t queueLowWatermark = 16;

    /** Cycles from arrival (or retry release) to deadline expiry. */
    Cycles deadline = 100'000;
    /** Deadline expiries tolerated per request before it is shed. */
    unsigned maxRetries = 2;
    /** Base of the PRF-jittered exponential retry backoff. */
    Cycles retryBackoffCycles = 2'000;

    /** Scheduler iterations without progress (no admission, no
     *  resolution, no virtual-time advance) before the liveness
     *  watchdog throws ServiceStallError. */
    std::uint64_t watchdogBound = 1 << 16;

    /** Snapshot every N resolved requests when a CheckpointSession is
     *  attached; 0 = only on stop signals.  Not fingerprinted. */
    std::uint64_t checkpointInterval = 0;
    /** Test seam: after N resolved requests, write a final snapshot
     *  and throw InterruptedError.  Not fingerprinted. */
    std::uint64_t interruptAfterResolved = 0;
    /** Test seam: admit arrivals but refuse to issue or advance time,
     *  so the watchdog must fire.  Not fingerprinted. */
    bool testForceStall = false;

    /** Observability (never part of the fingerprint). */
    obs::ObsConfig obs;

    /** Latency/availability objective; latencyBound 0 disables.  Not
     *  fingerprinted — monitoring must not change the run. */
    obs::SloConfig slo;
};

/** One admitted request waiting in the queue. */
struct Request
{
    std::uint64_t seq = 0;  ///< Admission order; ties broken by it.
    std::uint64_t client = 0;
    Addr addr = 0;
    bool isWrite = false;
    Cycles arrival = 0;
    /** Earliest cycle the scheduler may issue it (retry backoff). */
    Cycles notBefore = 0;
    Cycles deadlineAt = 0;
    unsigned attempts = 0;  ///< Deadline expiries consumed so far.
    /** Timeline-pool slot carrying this request's stage record; -1
     *  until admission assigns one.  Not serialized — slots are
     *  re-acquired in queue order on resume. */
    std::int32_t timelineSlot = -1;

    /** Wire format (kSectionSvc queue entries). */
    template <class Self, class Ar>
    static void
    serde(Self &r, Ar &ar)
    {
        ar.u64(r.seq);
        ar.u64(r.client);
        ar.u64(r.addr);
        ar.u8As(r.isWrite);
        ar.u64(r.arrival);
        ar.u64(r.notBefore);
        ar.u64(r.deadlineAt);
        ar.u32(r.attempts);
    }
};

/**
 * One entry of the issued control sequence: replaying these against a
 * bare TinyOram (same OramConfig/policy) reproduces the external
 * access trace bit-for-bit — the obliviousness tests' oracle.
 */
struct ControlRecord
{
    enum class Kind : std::uint8_t { Access, Pressure };
    Kind kind = Kind::Access;
    Addr addr = 0;       ///< Access only.
    bool isWrite = false;  ///< Access only.
    bool pressureOn = false;  ///< Pressure only.
};

/** Outcome of one service run. */
struct ServiceStats
{
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    /** Reads completed by joining another reader's path access. */
    std::uint64_t dedupJoins = 0;
    /** Completions whose data a shadow copy forwarded early. */
    std::uint64_t shadowEarlyCompletions = 0;
    std::uint64_t requestsShed = 0;
    std::uint64_t shedAdmission = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t retries = 0;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t backpressureEntries = 0;
    std::uint64_t backpressureExits = 0;
    /** Path accesses actually issued to the controller. */
    std::uint64_t issuedAccesses = 0;
    Cycles finishTime = 0;

    /** Arrival-to-forward latency distribution (completions only),
     *  exact nearest-rank percentiles over virtual cycles. */
    Cycles latencyP50 = 0;
    Cycles latencyP99 = 0;
    Cycles latencyP999 = 0;
    Cycles latencyMax = 0;
    double latencyMean = 0.0;

    /** Per-stage latency attribution (index = obs::StageId): exact
     *  nearest-rank cuts over the per-completion stage totals. */
    std::array<obs::StageCut, obs::kStageIdCount> stages{};
    /** Completions whose stage totals did not sum to the measured
     *  latency.  The causal timeline is exact by construction, so
     *  anything nonzero is an accounting bug; benches gate on 0. */
    std::uint64_t stageBalanceViolations = 0;

    /** SLO monitor outcome (all zero when the monitor is off). */
    std::uint64_t sloWindows = 0;
    std::uint64_t sloBreaches = 0;
    std::uint64_t sloWorstBurnMilli = 0;

    /** Rendered exemplar rows (JSONL) — the PRF-sampled per-bin
     *  request traces; empty when no request completed. */
    std::string exemplarsJsonl;
    /** Rendered flight-recorder dump (one JSON object). */
    std::string flightJson;

    /** Final controller statistics. */
    OramStats oram;

    /**
     * Wire format of the counters a run accumulates (kSectionSvc).
     * Everything else is computed when the run ends, so it does not
     * travel in a snapshot.
     */
    template <class Self, class Ar>
    static void
    serde(Self &s, Ar &ar)
    {
        ar.u64(s.arrivals);
        ar.u64(s.admitted);
        ar.u64(s.completed);
        ar.u64(s.dedupJoins);
        ar.u64(s.shadowEarlyCompletions);
        ar.u64(s.requestsShed);
        ar.u64(s.shedAdmission);
        ar.u64(s.shedDeadline);
        ar.u64(s.retries);
        ar.u64(s.deadlineMisses);
        ar.u64(s.maxQueueDepth);
        ar.u64(s.backpressureEntries);
        ar.u64(s.backpressureExits);
        ar.u64(s.issuedAccesses);
        ar.u64(s.stageBalanceViolations);
    }

    /** Resolved fraction: every request must reach a terminal
     *  outcome, so anything below 1.0 is a pipeline failure. */
    double
    availability() const
    {
        return arrivals == 0
                   ? 1.0
                   : static_cast<double>(completed + requestsShed) /
                         static_cast<double>(arrivals);
    }
};

/**
 * The pipeline object.  Construct, optionally attach test seams, then
 * run() exactly once.
 */
class ServicePipeline
{
  public:
    explicit ServicePipeline(const ServiceConfig &cfg);
    ~ServicePipeline();

    ServicePipeline(const ServicePipeline &) = delete;
    ServicePipeline &operator=(const ServicePipeline &) = delete;

    /** Observe the externally visible access trace (forwarded to the
     *  controller; must be attached before run()). */
    void setTraceSink(TraceSink *sink);

    /** Record the issued control sequence for replay verification. */
    void setControlLog(std::vector<ControlRecord> *log)
    {
        _controlLog = log;
    }

    /** Test seam: serve this exact arrival list instead of the
     *  configured generator (checkpointing unsupported with it). */
    void injectArrivals(std::vector<ArrivalRecord> arrivals);

    /**
     * Drain the stream: admit, schedule, dedup, retry, shed until
     * every arrival is resolved.  With a session, resumes from the
     * newest valid snapshot and checkpoints per the configured
     * cadence.  Throws ServiceStallError when the watchdog fires and
     * InterruptedError on a stop request (after a final snapshot).
     */
    ServiceStats run(ckpt::CheckpointSession *session = nullptr);

    const TinyOram &oram() const { return *_oram; }

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
    std::unique_ptr<TinyOram> _oram;
    std::vector<ControlRecord> *_controlLog = nullptr;
};

/** Convenience: construct a pipeline and run it. */
ServiceStats runService(const ServiceConfig &cfg,
                        ckpt::CheckpointSession *session = nullptr);

/**
 * 64-bit fingerprint over every semantic field of @p cfg (the
 * embedded SystemConfig fields plus the arrival stream and every
 * scheduler knob).  checkpointInterval, interruptAfterResolved,
 * testForceStall and obs are excluded so a resumed run addresses the
 * same checkpoint files.
 */
std::uint64_t serviceConfigFingerprint(const ServiceConfig &cfg);

} // namespace svc
} // namespace sboram

#endif // SBORAM_SVC_SERVICE_HH
