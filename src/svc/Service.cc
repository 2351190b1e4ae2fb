#include "svc/Service.hh"

#include <algorithm>
#include <type_traits>

#include "common/Errors.hh"
#include "common/Logging.hh"
#include "common/Stats.hh"
#include "crypto/Prf.hh"
#include "obs/FlightRecorder.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"
#include "obs/Observer.hh"
#include "obs/Trace.hh"
#include "sim/Controller.hh"
#include "sim/RunFrame.hh"

namespace sboram {
namespace svc {

namespace {

/**
 * Deterministic PRF-jittered exponential backoff for a deadline
 * retry.  Stateless: keyed on the arrival seed and the (seq, attempt)
 * pair, so resumes and replays draw the same jitter without burning
 * generator state.
 */
Cycles
retryBackoff(const ServiceConfig &cfg, std::uint64_t seq,
             unsigned attempt)
{
    const Cycles base = std::max<Cycles>(1, cfg.retryBackoffCycles);
    const unsigned shift = std::min(attempt, 6u);
    const PrfKey key{0x7376632d72747279ULL, cfg.arrivals.seed};
    return (base << shift) + prf64(key, seq, attempt) % base;
}

/** The memory system under the pipeline as a batch config: what the
 *  controller is built from and what the fingerprint keys on. */
SystemConfig
memorySystem(const ServiceConfig &cfg)
{
    SystemConfig sys;
    sys.scheme = cfg.scheme;
    sys.oram = cfg.oram;
    sys.shadow = cfg.shadow;
    sys.obs = cfg.obs;
    return sys;
}

/** The controller's config: the memory system, issued through a port
 *  with virtual dummies off (and, by memorySystem()'s defaults, no
 *  timing protection or watchdog), so every service access is issued
 *  as a bare ORAM access. */
SystemConfig
controllerConfig(const ServiceConfig &cfg)
{
    SystemConfig sys = memorySystem(cfg);
    sys.virtualDummies = false;  // ROADMAP item 1 turns this on.
    return sys;
}

/** Exemplars kept per log2 latency bin. */
constexpr std::size_t kExemplarsPerBin = 4;

} // namespace

/** The controller and everything run() needs beyond it. */
struct ServicePipeline::Impl
{
    ServiceConfig cfg;
    Controller ctrl;
    ArrivalGenerator gen;

    /** Injected arrival list (test seam); empty = use the generator. */
    std::vector<ArrivalRecord> injected;
    bool useInjected = false;
    std::uint64_t injectedCursor = 0;

    bool ran = false;

    explicit Impl(const ServiceConfig &c)
        : cfg(c),
          ctrl(controllerConfig(c), Controller::FrontEnd::Service,
               serviceConfigFingerprint(c)),
          gen(c.arrivals)
    {
    }
};

ServicePipeline::ServicePipeline(const ServiceConfig &cfg)
    : _impl(std::make_unique<Impl>(cfg))
{
    SB_ASSERT(cfg.scheme != Scheme::Insecure,
              "the service layer fronts an ORAM controller");
    SB_ASSERT(cfg.queueCapacity > 0, "queueCapacity must be positive");
    if (cfg.queueHighWatermark != 0)
        SB_ASSERT(cfg.queueLowWatermark < cfg.queueHighWatermark &&
                      cfg.queueHighWatermark <= cfg.queueCapacity,
                  "queue watermarks must be hysteretic and within "
                  "capacity (low %llu < high %llu <= cap %llu)",
                  static_cast<unsigned long long>(
                      cfg.queueLowWatermark),
                  static_cast<unsigned long long>(
                      cfg.queueHighWatermark),
                  static_cast<unsigned long long>(cfg.queueCapacity));
    SB_ASSERT(cfg.deadline > 0, "deadline must be positive");
    SB_ASSERT(cfg.arrivals.addressBlocks <= cfg.oram.dataBlocks,
              "arrival address space exceeds the ORAM data space");
}

ServicePipeline::~ServicePipeline() = default;

void
ServicePipeline::setTraceSink(TraceSink *sink)
{
    _impl->ctrl.oram().setTraceSink(sink);
}

void
ServicePipeline::injectArrivals(std::vector<ArrivalRecord> arrivals)
{
    _impl->injected = std::move(arrivals);
    _impl->useInjected = true;
}

ServiceStats
ServicePipeline::run(ckpt::CheckpointSession *session)
{
    SB_ASSERT(!_impl->ran, "a ServicePipeline runs exactly once");
    _impl->ran = true;
    SB_ASSERT(session == nullptr || !_impl->useInjected,
              "checkpointing is unsupported with injected arrivals");

    const ServiceConfig &cfg = _impl->cfg;
    Controller &ctrl = _impl->ctrl;
    const std::uint64_t total =
        _impl->useInjected
            ? static_cast<std::uint64_t>(_impl->injected.size())
            : cfg.requests;

    ServiceStats stats;
    std::deque<Request> queue;
    obs::LatencySample latency;
    latency.reserve(std::min<std::uint64_t>(total, 1u << 20));
    Cycles now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t resolved = 0;
    bool pressureOn = false;

    // --- Request-level observability (always on; DESIGN.md §13) -----
    // The pool is preallocated here (cold path) and sized to the
    // admission-queue capacity: an issuing request is popped before
    // any further admission can happen, so the number of live
    // timeline records never exceeds the queue bound.
    obs::TimelinePool pool(cfg.queueCapacity);
    // Exact per-stage durations of every completion (index = StageId;
    // a stage enters a sample only when the request spent time in it).
    std::array<obs::LatencySample, obs::kStageIdCount> stageSamples;
    obs::ExemplarReservoir exemplars(
        PrfKey{0x7376632d6578656dULL /* "svc-exem" */,
               cfg.arrivals.seed},
        kExemplarsPerBin, obs::kDefaultLog2Bins);
    obs::SloMonitor slo(cfg.slo);
    // Recovery-ladder events (quarantines, degraded transitions) land
    // in the same ring as the scheduler's own control events.
    obs::FlightRecorder &flight = ctrl.flight();

    // One-record lookahead over the arrival source, so "is the next
    // arrival due" is a field compare instead of a generator call.
    ArrivalRecord pending;
    bool pendingValid = false;
    std::uint64_t pulled = 0;  ///< Arrivals drawn from the source.
    auto pull = [&]() {
        if (pulled >= total) {
            pendingValid = false;
            return;
        }
        pending = _impl->useInjected
                      ? _impl->injected[_impl->injectedCursor++]
                      : _impl->gen.next();
        ++pulled;
        pendingValid = true;
    };

    // The run frame owns the observer, the checkpoint cadence and
    // resume; artifact bytes are identical whether or not anyone is
    // watching, like sim/System.
    RunFrame frame(cfg.obs, session, cfg.checkpointInterval,
                   cfg.interruptAfterResolved, "resolved requests");
    obs::RunObserver *const obsPtr = frame.observer();
    obs::HistogramSink *latencyHist = nullptr;
    obs::Counter *sloBreachCounter = nullptr;
    std::array<obs::HistogramSink *, obs::kStageIdCount> stageHists{};
    if (obsPtr != nullptr) {
        ctrl.attach(obsPtr);
        if (cfg.obs.metrics) {
            obs::MetricRegistry &reg = obsPtr->registry();
            reg.gauge(obs::kMetricSvcAdmitted, [&stats] {
                return static_cast<double>(stats.admitted);
            });
            reg.gauge(obs::kMetricSvcCompleted, [&stats] {
                return static_cast<double>(stats.completed);
            });
            reg.gauge(obs::kMetricSvcShed, [&stats] {
                return static_cast<double>(stats.requestsShed);
            });
            reg.gauge(obs::kMetricSvcDeadlineMisses, [&stats] {
                return static_cast<double>(stats.deadlineMisses);
            });
            reg.gauge(obs::kMetricSvcRetries, [&stats] {
                return static_cast<double>(stats.retries);
            });
            reg.gauge(obs::kMetricSvcDedupJoins, [&stats] {
                return static_cast<double>(stats.dedupJoins);
            });
            reg.gauge(obs::kMetricSvcQueueDepth, [&queue] {
                return static_cast<double>(queue.size());
            });
            reg.gauge(obs::kMetricSvcBackpressure, [&pressureOn] {
                return pressureOn ? 1.0 : 0.0;
            });
            sloBreachCounter =
                &reg.counter(obs::kMetricSvcSloBreaches);
            latencyHist = &reg.histogramLog2(obs::kMetricSvcLatency,
                                             obs::kDefaultLog2Bins);
            // Per-stage latency decomposition, one log2 histogram per
            // stage (registered individually: metric names must be
            // kStage* constants for the untracked-metric lint rule).
            stageHists[obs::kStageIdQueueWait] = &reg.histogramLog2(
                obs::kStageQueueWait, obs::kDefaultLog2Bins);
            stageHists[obs::kStageIdRetryBackoff] =
                &reg.histogramLog2(obs::kStageRetryBackoff,
                                   obs::kDefaultLog2Bins);
            stageHists[obs::kStageIdDedupJoin] = &reg.histogramLog2(
                obs::kStageDedupJoin, obs::kDefaultLog2Bins);
            stageHists[obs::kStageIdPathAccess] = &reg.histogramLog2(
                obs::kStagePathAccess, obs::kDefaultLog2Bins);
            stageHists[obs::kStageIdShadowForward] =
                &reg.histogramLog2(obs::kStageShadowForward,
                                   obs::kDefaultLog2Bins);
        }
        obsPtr->sealRegistry();
    }
    obs::TraceSession *const traceS = frame.trace();

    /**
     * Close the open queue-side interval of a request's timeline up
     * to @p t.  Outside a backoff window the whole interval is queue
     * wait; inside one it splits at the (pre-update) notBefore into
     * backoff then renewed wait.  Must run before notBefore changes.
     */
    auto closeOpenUntil = [](obs::TimelineRecord &rec,
                             const Request &r, Cycles t) {
        if (rec.inBackoff()) {
            rec.stage(obs::kStageRetryBackoff, rec.openStart(),
                      std::min(t, r.notBefore));
            if (t > r.notBefore)
                rec.stage(obs::kStageQueueWait, r.notBefore, t);
        } else {
            rec.stage(obs::kStageQueueWait, rec.openStart(), t);
        }
    };

    /** React to a closed SLO window that breached the objective. */
    auto noteSloBurn = [&](std::int64_t burnMilli) {
        if (burnMilli < 0)
            return;
        flight.record(now, obs::FlightKind::SloBurn,
                      static_cast<std::uint64_t>(burnMilli),
                      slo.windows());
        if (sloBreachCounter != nullptr)
            sloBreachCounter->add();
        if (traceS != nullptr)
            traceS->instant(obs::kTrackService, "slo_burn", now);
    };

    /** Latch or release service pressure on the controller. */
    auto setPressure = [&](bool on) {
        pressureOn = on;
        ++(on ? stats.backpressureEntries : stats.backpressureExits);
        ctrl.oram().noteServicePressure(on);
        flight.record(now,
                      on ? obs::FlightKind::PressureOn
                         : obs::FlightKind::PressureOff,
                      queue.size());
        obs::forensics().pressure.store(on ? 1 : 0);
        if (_controlLog != nullptr)
            _controlLog->push_back(
                {ControlRecord::Kind::Pressure, 0, false, on});
    };

    /** Apply the hysteretic queue watermarks. */
    auto notePressure = [&]() {
        const bool enter = !pressureOn && cfg.queueHighWatermark != 0 &&
                           queue.size() >= cfg.queueHighWatermark;
        const bool release =
            pressureOn && queue.size() <= cfg.queueLowWatermark;
        if (!enter && !release)
            return;
        setPressure(enter);
        if (traceS != nullptr)
            traceS->instant(obs::kTrackService,
                            enter ? "svc_backpressure_enter"
                                  : "svc_backpressure_exit",
                            now);
    };

    auto shed = [&](Cycles arrival, ShedReason reason) {
        ++stats.requestsShed;
        if (reason == ShedReason::AdmissionFull)
            ++stats.shedAdmission;
        else
            ++stats.shedDeadline;
        ++resolved;
        noteSloBurn(slo.onResolved(false));
        if (traceS != nullptr)
            traceS->instant(obs::kTrackService,
                            reason == ShedReason::AdmissionFull
                                ? "shed_admission"
                                : "shed_deadline",
                            std::max(now, arrival));
    };

    auto complete = [&](const Request &r, Cycles at,
                        bool usedShadow) {
        ++stats.completed;
        ++resolved;
        const Cycles lat = at - r.arrival;
        latency.add(lat);
        if (usedShadow)
            ++stats.shadowEarlyCompletions;
        if (latencyHist != nullptr)
            latencyHist->sample(static_cast<double>(lat));
        const obs::TimelineRecord &rec = pool.at(r.timelineSlot);
        // The timeline is exact by construction: the stage totals of
        // a completion must reproduce its measured latency.
        if (rec.totalAll() != lat)
            ++stats.stageBalanceViolations;
        exemplars.offer(rec, lat, usedShadow, r.attempts);
        for (std::size_t i = 0; i < obs::kStageIdCount; ++i) {
            const Cycles t = rec.total(static_cast<obs::StageId>(i));
            if (t == 0)
                continue;
            stageSamples[i].add(t);
            if (stageHists[i] != nullptr)
                stageHists[i]->sample(static_cast<double>(t));
        }
        pool.release(r.timelineSlot);
        noteSloBurn(slo.onResolved(slo.isGood(lat)));
        if (traceS != nullptr)
            traceS->complete(obs::kTrackService, "request",
                             r.arrival, lat);
    };

    /** Admit every arrival due at or before @p now; returns count. */
    auto admitDue = [&]() {
        std::uint64_t admitted = 0;
        while (pendingValid && pending.arrival <= now) {
            ++stats.arrivals;
            if (queue.size() >= cfg.queueCapacity) {
                flight.record(std::max(now, pending.arrival),
                              obs::FlightKind::ShedAdmission,
                              pending.client, pending.arrival);
                shed(pending.arrival, ShedReason::AdmissionFull);
            } else {
                Request r;
                r.seq = nextSeq++;
                r.client = pending.client;
                r.addr = pending.addr;
                r.isWrite = pending.isWrite;
                r.arrival = pending.arrival;
                r.notBefore = pending.arrival;
                r.deadlineAt = pending.arrival + cfg.deadline;
                r.timelineSlot = pool.acquire();
                pool.at(r.timelineSlot)
                    .reset(r.seq, r.client, r.addr, r.arrival);
                queue.push_back(r);
                ++stats.admitted;
                ++admitted;
                stats.maxQueueDepth = std::max<std::uint64_t>(
                    stats.maxQueueDepth, queue.size());
            }
            pull();
        }
        if (admitted != 0)
            notePressure();
        return admitted;
    };

    // --- Checkpointing ----------------------------------------------
    // The scheduler's own state, one body for both directions.
    auto svcSection = [&](auto &ar) {
        ar.nested(_impl->gen);
        ar.u8As(pendingValid);
        ar.u64(pending.arrival);
        ar.u64(pending.client);
        ar.u64(pending.addr);
        ar.u8As(pending.isWrite);
        ar.u64(pulled);
        ar.u64(now);
        ar.u64(nextSeq);
        ar.u64(resolved);
        ar.u8As(pressureOn);
        ar.seq(queue, [&](auto &r) { Request::serde(r, ar); });
        ServiceStats::serde(stats, ar);
        ar.nested(latency);
    };
    auto reqObsSection = [&](auto &ar) {
        constexpr bool loading =
            std::remove_reference_t<decltype(ar)>::kLoading;
        // Timeline records travel in queue order; slots themselves
        // are re-acquired deterministically on restore.
        std::uint64_t recs = queue.size();
        ar.u64(recs);
        if constexpr (loading)
            SB_ASSERT(recs == queue.size(),
                      "request-obs section carries %llu timeline "
                      "records for a queue of depth %zu",
                      static_cast<unsigned long long>(recs),
                      queue.size());
        for (Request &r : queue) {
            if constexpr (loading)
                r.timelineSlot = pool.acquire();
            ar.nested(pool.at(r.timelineSlot));
        }
        for (obs::LatencySample &sample : stageSamples)
            ar.nested(sample);
        ar.nested(exemplars);
        ar.nested(slo);
        ar.nested(flight);
    };
    frame.bind(
        [&](ckpt::SnapshotWriter &w) {
            svcSection(w.section(ckpt::kSectionSvc));
            reqObsSection(w.section(ckpt::kSectionReqObs));
            ctrl.save(w);
        },
        [&](const ckpt::SnapshotReader &reader) {
            // Fetch every section first so a structurally wrong
            // snapshot is rejected before any state mutates.
            auto dSvc = reader.section(ckpt::kSectionSvc);
            auto dReq = reader.section(ckpt::kSectionReqObs);
            ctrl.restore(reader);
            svcSection(dSvc);
            reqObsSection(dReq);
            obs::forensics().pressure.store(pressureOn ? 1 : 0);
            return resolved;
        });
    if (!frame.resume())
        pull();

    // --- Scheduler loop ---------------------------------------------
    std::uint64_t idleIters = 0;
    auto eligibleCount = [&]() {
        std::uint64_t n = 0;
        for (const Request &r : queue)
            if (r.notBefore <= now)
                ++n;
        return n;
    };
    while (resolved < total) {
        bool progress = false;
        const std::uint64_t before = resolved;
        if (admitDue() != 0)
            progress = true;
        if (resolved != before) {
            progress = true;  // Admission sheds resolve arrivals.
            frame.step(resolved, now);
        }

        if (cfg.testForceStall) {
            // The seam refuses to issue or advance time, so the only
            // possible outcome is a watchdog trip.
            progress = false;
        } else {
            // Lowest-seq eligible request issues next (seq-sorted
            // wait list; the queue is already in seq order).
            std::size_t pick = queue.size();
            for (std::size_t i = 0; i < queue.size(); ++i) {
                if (queue[i].notBefore <= now) {
                    pick = i;
                    break;
                }
            }
            if (pick == queue.size()) {
                // Nothing runnable: jump to the next event (arrival
                // or retry release).  No event and an empty stream
                // means everything is resolved already.
                Cycles next = kNoCycles;
                if (pendingValid)
                    next = pending.arrival;
                for (const Request &r : queue)
                    next = std::min(next, r.notBefore);
                if (next != kNoCycles && next > now) {
                    now = next;
                    progress = true;
                }
            } else if (now > queue[pick].deadlineAt) {
                // Expired at the head of the runnable set: retry with
                // jittered backoff while the budget lasts, then shed
                // — a structured outcome either way.
                Request &r = queue[pick];
                ++stats.deadlineMisses;
                if (r.attempts >= cfg.maxRetries) {
                    flight.record(now,
                                  obs::FlightKind::ShedDeadline,
                                  r.seq, r.attempts);
                    pool.release(r.timelineSlot);
                    shed(r.arrival, ShedReason::DeadlineExhausted);
                    queue.erase(queue.begin() +
                                static_cast<std::ptrdiff_t>(pick));
                    notePressure();
                } else {
                    ++r.attempts;
                    ++stats.retries;
                    obs::TimelineRecord &rec = pool.at(r.timelineSlot);
                    closeOpenUntil(rec, r, now);
                    rec.markBackoff(now);
                    r.notBefore =
                        now + retryBackoff(cfg, r.seq, r.attempts);
                    r.deadlineAt = r.notBefore + cfg.deadline;
                    flight.record(now, obs::FlightKind::Retry,
                                  r.seq, r.attempts);
                }
                progress = true;
                frame.step(resolved, now);
            } else {
                // Issue the pick; one path access serves the primary
                // and fans out to every queued same-address reader.
                const Request r = queue[pick];
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(pick));
                if (_controlLog != nullptr)
                    _controlLog->push_back({ControlRecord::Kind::Access,
                                            r.addr, r.isWrite, false});
                const Cycles issueAt = now;
                const AccessResult res = ctrl.issue(
                    r.addr, r.isWrite ? Op::Write : Op::Read,
                    issueAt);
                ++stats.issuedAccesses;
                now = std::max(now, res.completeAt);
                const Cycles doneAt =
                    r.isWrite ? res.completeAt : res.forwardAt;
                obs::TimelineRecord &rec = pool.at(r.timelineSlot);
                closeOpenUntil(rec, r, issueAt);
                if (res.usedShadow)
                    rec.stage(obs::kStageShadowForward, issueAt, doneAt);
                else
                    rec.stage(obs::kStagePathAccess, issueAt, doneAt);
                complete(r, doneAt, res.usedShadow);
                if (!r.isWrite) {
                    for (auto it = queue.begin();
                         it != queue.end();) {
                        if (!it->isWrite && it->addr == r.addr) {
                            ++stats.dedupJoins;
                            if (traceS != nullptr)
                                traceS->instant(obs::kTrackService,
                                                "dedup_join",
                                                res.forwardAt);
                            obs::TimelineRecord &join =
                                pool.at(it->timelineSlot);
                            closeOpenUntil(join, *it, issueAt);
                            join.stage(obs::kStageDedupJoin, issueAt,
                                       res.forwardAt);
                            complete(*it, res.forwardAt,
                                     res.usedShadow);
                            it = queue.erase(it);
                        } else {
                            ++it;
                        }
                    }
                }
                notePressure();
                if (obsPtr != nullptr)
                    obsPtr->onAccessBoundary(resolved, now, issueAt,
                                             res.forwardAt);
                progress = true;
                frame.step(resolved, now);
            }
        }

        if (progress) {
            idleIters = 0;
        } else {
            ++idleIters;
            // Liveness heartbeat: a tick every quarter of the bound,
            // so the flight recorder and the panic-diag forensics
            // show how long the scheduler was wedged before the trip.
            const std::uint64_t tickEvery =
                std::max<std::uint64_t>(1, cfg.watchdogBound / 4);
            if (idleIters % tickEvery == 0) {
                flight.record(now, obs::FlightKind::WatchdogTick,
                              idleIters);
                obs::forensics().watchdogTickCycle.store(now);
            }
            if (idleIters > cfg.watchdogBound) {
                flight.record(now, obs::FlightKind::WatchdogTrip,
                              queue.size(), idleIters);
                ctrl.panicFlush();
                throw ServiceStallError(
                    "no admission, completion or time advance for " +
                        std::to_string(idleIters) + " scheduler "
                        "iterations at cycle " + std::to_string(now),
                    queue.size(), eligibleCount(),
                    stats.requestsShed, stats.deadlineMisses,
                    stats.completed);
            }
        }
    }

    // Release the latch so the final controller state matches a
    // pressure-balanced control sequence.
    if (pressureOn)
        setPressure(false);

    noteSloBurn(slo.flush());
    stats.sloWindows = slo.windows();
    stats.sloBreaches = slo.breaches();
    stats.sloWorstBurnMilli = slo.worstBurnMilli();
    for (std::size_t i = 0; i < obs::kStageIdCount; ++i)
        stats.stages[i] = stageSamples[i].cut();
    stats.exemplarsJsonl = exemplars.renderJsonl();
    stats.flightJson = ctrl.publishFlight();

    stats.finishTime = now;
    stats.oram = ctrl.oram().stats();
    const SortedCut cut = latency.cut();
    stats.latencyP50 = cut.p50;
    stats.latencyP99 = cut.p99;
    stats.latencyP999 = cut.p999;
    stats.latencyMax = cut.max;
    if (cut.count != 0)
        stats.latencyMean = static_cast<double>(cut.total) /
                            static_cast<double>(cut.count);

    if (session != nullptr)
        session->removeSnapshots();
    frame.finish(resolved, now);
    return stats;
}

ServiceStats
runService(const ServiceConfig &cfg, ckpt::CheckpointSession *session)
{
    ServicePipeline pipeline(cfg);
    return pipeline.run(session);
}

std::uint64_t
serviceConfigFingerprint(const ServiceConfig &cfg)
{
    // Reuse the SystemConfig fingerprint for the embedded memory
    // system so the two stay in lockstep field-for-field, then append
    // the service-only knobs.  Cadence and observability fields
    // (checkpointInterval, interruptAfterResolved, testForceStall,
    // obs) are deliberately omitted: any cadence resumes to the same
    // outcome.
    ckpt::Serializer s;
    s.u64(configFingerprint(memorySystem(cfg)));
    fingerprintArrivals(s, cfg.arrivals);
    s.u64(cfg.requests);
    s.u64(cfg.queueCapacity);
    s.u64(cfg.queueHighWatermark);
    s.u64(cfg.queueLowWatermark);
    s.u64(cfg.deadline);
    s.u32(cfg.maxRetries);
    s.u64(cfg.retryBackoffCycles);
    s.u64(cfg.watchdogBound);
    return ckpt::fnv1a(s.buffer().data(), s.buffer().size());
}

} // namespace svc
} // namespace sboram
