#include "System.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "baseline/InsecureMemory.hh"
#include "common/Errors.hh"
#include "common/Logging.hh"
#include "mem/EnergyModel.hh"
#include "obs/FlightRecorder.hh"
#include "obs/MetricNames.hh"
#include "obs/Observer.hh"
#include "security/InvariantChecker.hh"
#include "workload/SpecProfiles.hh"

namespace sboram {

namespace {

/** Memory port wrapping the insecure DRAM system. */
class InsecurePort : public MemoryPort
{
  public:
    explicit InsecurePort(InsecureMemory &mem) : _mem(mem) {}

    MemoryReply
    request(Addr addr, Op op, Cycles issueTime) override
    {
        InsecureMemory::Result r = _mem.access(addr, op, issueTime);
        _busy += r.completeAt -
                 std::max(issueTime, _lastComplete);
        _lastComplete = r.completeAt;
        return MemoryReply{r.forwardAt};
    }

    double busyTime() const { return static_cast<double>(_busy); }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self._busy);
        ar.u64(self._lastComplete);
        Cycles freeAt = self._mem.freeAt();
        ar.u64(freeAt);
        if constexpr (Ar::kLoading)
            self._mem.restoreFreeAt(freeAt);
    }

    InsecureMemory &_mem;
    Cycles _busy = 0;
    Cycles _lastComplete = 0;
};

/**
 * Memory port wrapping the ORAM controller, including the
 * constant-rate timing protection of Fletcher et al. [16]: real or
 * dummy ORAM requests launch on a fixed-interval slot grid; stash
 * hits consume no slot.
 */
class OramPort : public MemoryPort
{
  public:
    OramPort(TinyOram &oram, bool timingProtection, Cycles interval,
             bool virtualDummies, std::uint64_t watchdogInterval)
        : _oram(oram), _tp(timingProtection), _interval(interval),
          _virtualDummies(virtualDummies),
          _watchdogInterval(watchdogInterval)
    {
        SB_ASSERT(!_tp || _interval > 0, "TP needs an interval");
        _idleThreshold = interval > 0 ? interval : 1;
    }

    MemoryReply
    request(Addr addr, Op op, Cycles issueTime) override
    {
        if (_watchdogInterval &&
            ++_sinceWatchdog >= _watchdogInterval) {
            _sinceWatchdog = 0;
            enforceInvariants(_oram, _oram.stats().requests);
        }

        if (_oram.wouldHitStash(addr, op)) {
            AccessResult r = _oram.access(addr, op, issueTime);
            return MemoryReply{r.forwardAt};
        }

        Cycles start = issueTime;
        if (_tp) {
            // Fire dummy requests in every elapsed slot, then place
            // this request on the next slot boundary.
            while (_nextSlot < issueTime) {
                fireDummy(_nextSlot);
                _nextSlot += _interval;
            }
            start = _nextSlot;
            _nextSlot += _interval;
        } else if (_virtualDummies) {
            // No timing protection: let the dynamic-partitioning DRI
            // counter see long idle gaps as if they were dummies.
            if (_lastComplete != 0 &&
                issueTime > _lastComplete + _idleThreshold) {
                const Cycles gap = issueTime - _lastComplete;
                const std::uint64_t n =
                    std::min<std::uint64_t>(gap / _idleThreshold, 4);
                for (std::uint64_t i = 0; i < n; ++i)
                    _oram.policy().onRequestClassified(true);
            }
        }

        AccessResult r = _oram.access(addr, op, start);
        _dataBusy += r.completeAt - r.start;
        _lastComplete = r.completeAt;
        return MemoryReply{r.forwardAt};
    }

    double dataBusyTime() const { return static_cast<double>(_dataBusy); }
    std::uint64_t dummiesFired() const { return _dummies; }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self._sinceWatchdog);
        ar.u64(self._nextSlot);
        ar.u64(self._lastComplete);
        ar.u64(self._dataBusy);
        ar.u64(self._dummies);
    }

    void
    fireDummy(Cycles slot)
    {
        _oram.dummyAccess(slot);
        ++_dummies;
    }

    TinyOram &_oram;
    bool _tp;
    Cycles _interval;
    bool _virtualDummies;
    std::uint64_t _watchdogInterval;
    std::uint64_t _sinceWatchdog = 0;
    Cycles _idleThreshold;
    Cycles _nextSlot = 0;
    Cycles _lastComplete = 0;
    Cycles _dataBusy = 0;
    std::uint64_t _dummies = 0;
};

/**
 * The RunMetrics fields a run carries across snapshots and rollbacks
 * (kSectionMetrics).  They also close the final-result wire format.
 */
template <class M, class Ar>
void
serdeCarried(M &m, Ar &ar)
{
    ar.u64(m.rollbacks);
    ar.u64(m.replayedAccesses);
    ar.vecU64(m.missRetireTimes);
}

/** Wire format of a completed point's RunMetrics (kSectionResult). */
template <class M, class Ar>
void
serdeRunMetrics(M &m, Ar &ar)
{
    ar.u64(m.execTime);
    ar.f64(m.dataAccessTime);
    ar.f64(m.driTime);
    ar.u64(m.requests);
    ar.u64(m.dummyRequests);
    ar.u64(m.stashHits);
    ar.u64(m.shadowStashHits);
    ar.u64(m.shadowForwards);
    ar.u64(m.pathReads);
    ar.u64(m.shadowsWritten);
    ar.f64(m.onChipHitRate);
    ar.f64(m.energy);
    ar.u64(m.stashPeakReal);
    ar.u64(m.stashOverflows);
    ar.f64(m.avgForwardLevel);
    ar.u32(m.finalPartitionLevel);
    ar.u64(m.faultsInjected);
    ar.u64(m.faultsDetected);
    ar.u64(m.faultsRecovered);
    ar.u64(m.faultsUnrecoverable);
    ar.u64(m.slotsQuarantined);
    ar.u64(m.quarantineEvacuations);
    ar.u64(m.degradedEntries);
    ar.u64(m.degradedTicks);
    ar.u64(m.emergencyEvictions);
    serdeCarried(m, ar);
}

std::vector<std::vector<LlcMissRecord>>
perCoreTraces(const std::vector<LlcMissRecord> &trace, unsigned cores,
              std::uint64_t dataBlocks)
{
    // The paper duplicates the benchmark, one task per core; each
    // task owns a distinct slice of the (oblivious) address space.
    std::vector<std::vector<LlcMissRecord>> result(cores, trace);
    const std::uint64_t stride = dataBlocks / cores;
    for (unsigned c = 0; c < cores; ++c) {
        for (LlcMissRecord &rec : result[c])
            rec.addr = (rec.addr % stride) + stride * c;
    }
    return result;
}

} // namespace

std::vector<LlcMissRecord>
makeTrace(const std::string &workload, std::uint64_t misses,
          std::uint64_t seed)
{
    WorkloadGenerator gen(specProfile(workload), seed);
    return gen.generate(misses);
}

RunMetrics
runSystem(const SystemConfig &cfg,
          const std::vector<LlcMissRecord> &rawTrace)
{
    return runSystem(cfg, rawTrace, nullptr);
}

RunMetrics
runSystem(const SystemConfig &cfg,
          const std::vector<LlcMissRecord> &rawTrace,
          ckpt::CheckpointSession *session)
{
    // Fold workload addresses into the configured data space (the
    // profiles target the default 2^20-block ORAM; smaller studies
    // reuse them scaled down).
    std::vector<LlcMissRecord> trace = rawTrace;
    for (LlcMissRecord &rec : trace)
        rec.addr %= cfg.oram.dataBlocks;

    RunMetrics m;
    DramModel dram(cfg.dramTiming, cfg.dramGeometry);
    EnergyModel energy(DramEnergy{}, cfg.dramGeometry.channels);

    // Observability hub: null unless the config opts in, so every
    // hook below stays a single branch on a cold pointer.
    std::unique_ptr<obs::RunObserver> observer;
    obs::RunObserver *obsPtr = nullptr;
    obs::Counter *ckptCounter = nullptr;
    if (cfg.obs.any()) {
        observer = std::make_unique<obs::RunObserver>(cfg.obs);
        obsPtr = observer.get();
        obsPtr->setTotalAccesses(
            trace.size() *
            (cfg.cpu == CpuKind::OutOfOrder ? cfg.cores : 1));
    }

    CpuCursor cursor;

    auto runCpu = [&](MemoryPort &port,
                      const CpuStepHook &hook) -> CpuRunResult {
        if (cfg.cpu == CpuKind::InOrder) {
            InOrderCpu cpu;
            return cpu.run(trace, port, cursor, hook);
        }
        OooCpu cpu(cfg.cores, cfg.window);
        return cpu.run(
            perCoreTraces(trace, cfg.cores, cfg.oram.dataBlocks),
            port, cursor, hook);
    };

    // The checkpoint hook fires after every completed memory request:
    // snapshot when the cadence says so, and on a stop request write
    // one final snapshot and unwind with InterruptedError.  With no
    // session and no interrupt seam the hook is empty and the CPU
    // models skip it entirely.
    using SaveAllFn = std::function<void(ckpt::SnapshotWriter &)>;
    std::uint64_t lastSnapshotAt = 0;
    auto makeHook = [&](SaveAllFn saveAll,
                        std::function<bool()> scrub) -> CpuStepHook {
        if (session == nullptr && cfg.interruptAfterAccesses == 0 &&
            obsPtr == nullptr)
            return CpuStepHook{};
        return [&cfg, session, &lastSnapshotAt, saveAll, scrub, obsPtr,
                &ckptCounter](const CpuCursor &cur) {
            if (obsPtr != nullptr)
                obsPtr->onAccessBoundary(cur.accessesDone,
                                         cur.partial.finishTime,
                                         cur.lastIssue,
                                         cur.lastForward);
            const bool stopping =
                ckpt::stopRequested() ||
                (cfg.interruptAfterAccesses != 0 &&
                 cur.accessesDone >= cfg.interruptAfterAccesses);
            const bool due =
                session != nullptr && cfg.checkpointInterval != 0 &&
                cur.accessesDone - lastSnapshotAt >=
                    cfg.checkpointInterval;
            if (!stopping && !due)
                return;
            if (session != nullptr) {
                // Scrub-before-commit: a fault can sit latent between
                // injection and the read that detects it, and a
                // snapshot taken inside that window would hand tier-3
                // rollback a poisoned restore point.  Verify (and
                // shadow-heal) the stored state first; if an
                // unhealable corruption is present, skip this cadence
                // commit and keep the last clean generation.
                if (scrub && !scrub()) {
                    lastSnapshotAt = cur.accessesDone;
                    if (obs::TraceSession *t =
                            obsPtr ? obsPtr->trace() : nullptr)
                        t->instant(obs::kTrackCheckpoint,
                                   "checkpoint_skipped",
                                   cur.partial.finishTime);
                } else {
                    ckpt::SnapshotWriter writer;
                    saveAll(writer);
                    session->commitSnapshot(writer);
                    lastSnapshotAt = cur.accessesDone;
                    if (ckptCounter != nullptr)
                        ckptCounter->add();
                    if (obs::TraceSession *t =
                            obsPtr ? obsPtr->trace() : nullptr)
                        t->instant(obs::kTrackCheckpoint, "checkpoint",
                                   cur.partial.finishTime);
                }
            }
            if (stopping)
                throw InterruptedError(
                    "run stopped after " +
                        std::to_string(cur.accessesDone) +
                        " accesses (final checkpoint written)",
                    cur.accessesDone);
        };
    };

    struct RecordingPort : MemoryPort
    {
        MemoryPort *inner = nullptr;
        std::vector<Cycles> *out = nullptr;

        MemoryReply
        request(Addr addr, Op op, Cycles issueTime) override
        {
            MemoryReply r = inner->request(addr, op, issueTime);
            out->push_back(r.forwardAt);
            return r;
        }
    };
    RecordingPort recorder;
    auto maybeRecord = [&](MemoryPort &inner) -> MemoryPort & {
        if (!cfg.recordPerMiss)
            return inner;
        recorder.inner = &inner;
        recorder.out = &m.missRetireTimes;
        return recorder;
    };

    if (cfg.scheme == Scheme::Insecure) {
        InsecureMemory mem(dram);
        InsecurePort port(mem);
        if (obsPtr != nullptr) {
            if (cfg.obs.metrics)
                ckptCounter = &obsPtr->registry().counter(
                    obs::kMetricCheckpoints);
            obsPtr->sealRegistry();
        }
        auto saveAll = [&](ckpt::SnapshotWriter &w) {
            cursor.saveState(w.section(ckpt::kSectionCpu));
            port.saveState(w.section(ckpt::kSectionMem));
            dram.saveState(w.section(ckpt::kSectionDram));
            serdeCarried(m, w.section(ckpt::kSectionMetrics));
            if (obsPtr != nullptr)
                obsPtr->saveState(w.section(ckpt::kSectionObs));
        };
        if (session != nullptr) {
            if (auto reader = session->loadLatest()) {
                // Fetch every section first so a structurally wrong
                // snapshot is rejected before any state mutates.
                auto dCpu = reader->section(ckpt::kSectionCpu);
                auto dMem = reader->section(ckpt::kSectionMem);
                auto dDram = reader->section(ckpt::kSectionDram);
                auto dMet = reader->section(ckpt::kSectionMetrics);
                cursor.loadState(dCpu);
                port.loadState(dMem);
                dram.loadState(dDram);
                serdeCarried(m, dMet);
                if (obsPtr != nullptr &&
                    reader->hasSection(ckpt::kSectionObs)) {
                    auto dObs = reader->section(ckpt::kSectionObs);
                    obsPtr->loadState(dObs);
                }
                lastSnapshotAt = cursor.accessesDone;
            }
        }
        CpuRunResult r =
            runCpu(maybeRecord(port), makeHook(saveAll, {}));
        m.execTime = r.finishTime;
        m.dataAccessTime = port.busyTime();
        m.driTime = static_cast<double>(m.execTime) - m.dataAccessTime;
        m.requests = r.reads + r.writes;
        m.energy = energy.totalEnergy(dram.stats(), m.execTime);
        if (obsPtr != nullptr) {
            obsPtr->finalSample(cursor.accessesDone, m.execTime);
            obsPtr->close();
        }
        return m;
    }

    std::unique_ptr<DuplicationPolicy> policy;
    ShadowPolicy *shadowPolicy = nullptr;
    if (cfg.scheme == Scheme::Shadow) {
        const unsigned leafLevel = cfg.oram.deriveLevels();
        auto sp = std::make_unique<ShadowPolicy>(cfg.shadow,
                                                 leafLevel);
        shadowPolicy = sp.get();
        policy = std::move(sp);
    }

    TinyOram oram(cfg.oram, dram, std::move(policy));

    // Always-on flight recorder for the recovery ladder: quarantines
    // and degraded transitions from the controller, rollbacks and
    // corruption rethrows from the tier-3 loop below.
    obs::FlightRecorder flight;
    std::string flightLabel = cfg.obs.label;
    if (flightLabel.empty()) {
        char labelBuf[24];
        std::snprintf(labelBuf, sizeof(labelBuf), "sys-%016llx",
                      static_cast<unsigned long long>(
                          configFingerprint(cfg)));
        flightLabel = labelBuf;
    }
    oram.setFlightRecorder(&flight);

    Cycles interval = cfg.tpInterval;
    if (cfg.timingProtection && interval == 0) {
        // Auto-size: one slot per average request service time
        // (path read plus the amortised eviction read+write).
        const Cycles path = oram.estimatePathReadLatency();
        interval = path +
                   2 * path / cfg.oram.evictionRate;
    }
    if (!cfg.timingProtection && interval == 0)
        interval = oram.estimatePathReadLatency();

    OramPort port(oram, cfg.timingProtection, interval,
                  cfg.virtualDummies, cfg.watchdogInterval);

    if (obsPtr != nullptr) {
        oram.setObserver(obsPtr);
        if (cfg.obs.metrics) {
            obs::MetricRegistry &reg = obsPtr->registry();
            ckptCounter = &reg.counter(obs::kMetricCheckpoints);
            // Controller counters are polled as gauges: the ORAM hot
            // path keeps its existing OramStats increments and pays
            // nothing extra per access.
            reg.gauge(obs::kMetricRequests, [&oram] {
                return static_cast<double>(oram.stats().requests);
            });
            reg.gauge(obs::kMetricStashHits, [&oram] {
                return static_cast<double>(oram.stats().stashHits);
            });
            reg.gauge(obs::kMetricPathReads, [&oram] {
                return static_cast<double>(oram.stats().pathReads);
            });
            reg.gauge(obs::kMetricShadowForwards, [&oram] {
                return static_cast<double>(
                    oram.stats().shadowForwards);
            });
            reg.gauge(obs::kMetricShadowsWritten, [&oram] {
                return static_cast<double>(
                    oram.stats().shadowsWritten);
            });
            reg.gauge(obs::kMetricFaultsDetected, [&oram] {
                return static_cast<double>(
                    oram.stats().faultsDetected);
            });
            reg.gauge(obs::kMetricFaultsRecovered, [&oram] {
                return static_cast<double>(
                    oram.stats().faultsRecovered);
            });
            reg.gauge(obs::kMetricQuarantinedSlots, [&oram] {
                return static_cast<double>(
                    oram.health().quarantinedCount());
            });
            reg.gauge(obs::kMetricDegraded, [&oram] {
                return oram.health().degraded() ? 1.0 : 0.0;
            });
            reg.gauge(obs::kMetricDegradedEntries, [&oram] {
                return static_cast<double>(
                    oram.stats().degradedEntries);
            });
            reg.gauge(obs::kMetricRollbacks, [&m] {
                return static_cast<double>(m.rollbacks);
            });
            reg.gauge(obs::kMetricStashReal, [&oram] {
                return static_cast<double>(oram.stash().realCount());
            });
            reg.gauge(obs::kMetricStashShadow, [&oram] {
                return static_cast<double>(
                    oram.stash().shadowCount());
            });
            reg.gauge(obs::kMetricStashHitRate, [&oram] {
                const OramStats &s = oram.stats();
                return s.requests
                    ? static_cast<double>(s.stashHits) /
                          static_cast<double>(s.requests)
                    : 0.0;
            });
            reg.gauge(obs::kMetricShadowHitDepth, [&oram] {
                // Mean levels advanced per shadow-forwarded read:
                // how deep in the path the winning shadow copy sat.
                const OramStats &s = oram.stats();
                return s.shadowForwards
                    ? static_cast<double>(s.levelsAdvanced) /
                          static_cast<double>(s.shadowForwards)
                    : 0.0;
            });
            if (shadowPolicy != nullptr) {
                reg.gauge(obs::kMetricPartitionLevel,
                          [shadowPolicy] {
                    return static_cast<double>(
                        shadowPolicy->partitionLevel());
                });
                reg.gauge(obs::kMetricDriCounter, [shadowPolicy] {
                    return static_cast<double>(
                        shadowPolicy->driCounter());
                });
            }
        }
        obsPtr->sealRegistry();
    }

    auto saveAll = [&](ckpt::SnapshotWriter &w) {
        cursor.saveState(w.section(ckpt::kSectionCpu));
        port.saveState(w.section(ckpt::kSectionPort));
        oram.saveState(w.section(ckpt::kSectionOram));
        if (shadowPolicy != nullptr)
            shadowPolicy->saveState(w.section(ckpt::kSectionPolicy));
        dram.saveState(w.section(ckpt::kSectionDram));
        serdeCarried(m, w.section(ckpt::kSectionMetrics));
        flight.saveState(w.section(ckpt::kSectionReqObs));
        if (obsPtr != nullptr)
            obsPtr->saveState(w.section(ckpt::kSectionObs));
    };
    auto restoreAll = [&](ckpt::SnapshotReader &reader) {
        // Fetch every section first so a structurally wrong snapshot
        // is rejected before any state mutates.
        auto dCpu = reader.section(ckpt::kSectionCpu);
        auto dPort = reader.section(ckpt::kSectionPort);
        auto dOram = reader.section(ckpt::kSectionOram);
        auto dDram = reader.section(ckpt::kSectionDram);
        auto dMet = reader.section(ckpt::kSectionMetrics);
        if (shadowPolicy != nullptr) {
            auto dPol = reader.section(ckpt::kSectionPolicy);
            shadowPolicy->loadState(dPol);
        }
        cursor.loadState(dCpu);
        port.loadState(dPort);
        oram.loadState(dOram);
        dram.loadState(dDram);
        serdeCarried(m, dMet);
        if (reader.hasSection(ckpt::kSectionReqObs)) {
            auto dReq = reader.section(ckpt::kSectionReqObs);
            flight.loadState(dReq);
        }
        if (obsPtr != nullptr &&
            reader.hasSection(ckpt::kSectionObs)) {
            auto dObs = reader.section(ckpt::kSectionObs);
            obsPtr->loadState(dObs);
        }
        lastSnapshotAt = cursor.accessesDone;
    };
    // Auto-rollback's last line of defense: a fault can corrupt a
    // stored ciphertext long before the next read detects it, so a
    // cadence snapshot taken in that window captures the poison and
    // rolling back to it deterministically reproduces the identical
    // failure.  Keep the pristine access-0 state as an in-memory
    // image (captured before any resume mutates it) so the ladder can
    // escalate to a clean restart from the trace start.
    std::vector<std::uint8_t> pristineImage;
    if (session != nullptr && cfg.maxAutoRollbacks > 0) {
        ckpt::SnapshotWriter writer;
        saveAll(writer);
        pristineImage = writer.finish(0, 0);
    }
    bool resumed = false;
    if (session != nullptr) {
        if (auto reader = session->loadLatest()) {
            restoreAll(*reader);
            resumed = true;
        }
    }
    if (session != nullptr && cfg.maxAutoRollbacks > 0 && !resumed) {
        // Auto-rollback needs a restore point even for corruption
        // that strikes before the first cadence snapshot: commit the
        // pristine access-0 state up front.
        ckpt::SnapshotWriter writer;
        saveAll(writer);
        session->commitSnapshot(writer);
        if (ckptCounter != nullptr)
            ckptCounter->add();
    }

    // Tier-3 of the recovery ladder: a CorruptionError that escaped
    // the in-ORAM tiers rolls the whole simulation back to the latest
    // valid snapshot generation and deterministically replays the
    // cursor — with the fault schedule shifted to its next
    // realization, since replaying the identical schedule would
    // re-corrupt the identical slot — instead of tearing the run
    // down.  Bounded attempts; exhaustion rethrows and the fatal
    // classifier reports it exactly as before.
    unsigned rollbacksUsed = 0;
    std::uint64_t lastFailedAt = std::uint64_t(-1);
    // Only auto-rollback sessions pay for the pre-commit patrol
    // scrub; plain checkpointing tolerates latent corruption in a
    // snapshot because it never restores one mid-run.
    std::function<bool()> scrubFn;
    if (session != nullptr && cfg.maxAutoRollbacks > 0)
        scrubFn = [&oram] { return oram.scrubStorage(); };
    CpuRunResult r;
    for (;;) {
        try {
            r = runCpu(maybeRecord(port), makeHook(saveAll, scrubFn));
            break;
        } catch (const CorruptionError &) {
            flight.record(cursor.partial.finishTime,
                          obs::FlightKind::Corruption,
                          cursor.accessesDone, rollbacksUsed);
            if (session == nullptr || cfg.maxAutoRollbacks == 0 ||
                rollbacksUsed >= cfg.maxAutoRollbacks) {
                // Fatal: hand the ring to the panic path before the
                // rethrow unwinds this frame.
                const std::string dump =
                    flight.renderJson(flightLabel);
                obs::publishFlightDump(flightLabel, dump);
                obs::notePanicFlight(dump);
                throw;
            }
            const std::uint64_t failedAt = cursor.accessesDone;
            // Escalation within tier 3: when the replay reproduces
            // the failure at the same access, the restored snapshot
            // itself carries the failure (a latent corruption the
            // pre-commit scrub could not heal, or a serialized stuck
            // cell) — abandon the cadence snapshots and restart clean
            // from the trace start.
            const bool noProgress = failedAt == lastFailedAt;
            std::unique_ptr<ckpt::SnapshotReader> reader;
            if (!noProgress)
                reader = session->loadLatest();
            if (!reader) {
                if (pristineImage.empty()) {
                    const std::string dump =
                        flight.renderJson(flightLabel);
                    obs::publishFlightDump(flightLabel, dump);
                    obs::notePanicFlight(dump);
                    throw;
                }
                reader = std::make_unique<ckpt::SnapshotReader>(
                    pristineImage);
            }
            // The Metrics section in the restored image predates this
            // ladder's own activity; carry the live counters across
            // the restore so rollbacks are never undercounted.
            const std::uint64_t priorRollbacks = m.rollbacks;
            const std::uint64_t priorReplayed = m.replayedAccesses;
            restoreAll(*reader);
            lastFailedAt = failedAt;
            ++rollbacksUsed;
            m.rollbacks = priorRollbacks + 1;
            m.replayedAccesses =
                priorReplayed + (failedAt - cursor.accessesDone);
            oram.shiftFaultRealization(rollbacksUsed);
            // The restore just replaced the ring with the snapshot's;
            // record the rollback after it so the event survives.
            flight.record(cursor.partial.finishTime,
                          obs::FlightKind::AutoRollback,
                          rollbacksUsed, failedAt);
            if (obs::TraceSession *t =
                    obsPtr ? obsPtr->trace() : nullptr)
                t->instant(obs::kTrackCheckpoint, "auto_rollback",
                           cursor.partial.finishTime);
        }
    }

    m.execTime = r.finishTime;
    m.dataAccessTime = port.dataBusyTime();
    m.driTime = static_cast<double>(m.execTime) - m.dataAccessTime;
    if (m.driTime < 0.0)
        m.driTime = 0.0;

    const OramStats &os = oram.stats();
    m.requests = os.requests;
    m.dummyRequests = os.dummyAccesses;
    m.stashHits = os.stashHits;
    m.shadowStashHits = os.shadowStashHits;
    m.shadowForwards = os.shadowForwards;
    m.pathReads = os.pathReads;
    m.shadowsWritten = os.shadowsWritten;
    m.onChipHitRate = os.requests
        ? static_cast<double>(os.onChipHits) /
          static_cast<double>(os.requests)
        : 0.0;
    m.energy = energy.totalEnergy(dram.stats(), m.execTime);
    m.stashPeakReal = oram.stash().stats().peakReal;
    m.stashOverflows = oram.stash().stats().overflowEvents;
    m.faultsInjected = os.faultsInjected;
    m.faultsDetected = os.faultsDetected;
    m.faultsRecovered = os.faultsRecovered;
    m.faultsUnrecoverable = os.faultsUnrecoverable;
    m.slotsQuarantined = os.slotsQuarantined;
    m.quarantineEvacuations = os.quarantineEvacuations;
    m.degradedEntries = os.degradedEntries;
    m.degradedTicks = os.degradedTicks;
    m.emergencyEvictions = os.emergencyEvictions;
    // m.rollbacks / m.replayedAccesses are maintained by the tier-3
    // loop above (and restored from the snapshot on resume).
    if (shadowPolicy)
        m.finalPartitionLevel = shadowPolicy->partitionLevel();
    // Empty rings stay out of the artifact: most batch points never
    // touch the recovery ladder.
    if (!flight.empty())
        obs::publishFlightDump(flightLabel,
                               flight.renderJson(flightLabel));
    if (obsPtr != nullptr) {
        obsPtr->finalSample(cursor.accessesDone, m.execTime);
        obsPtr->close();
    }
    return m;
}

RunMetrics
runWorkload(const SystemConfig &cfg, const std::string &workload,
            std::uint64_t misses, std::uint64_t seed)
{
    return runSystem(cfg, makeTrace(workload, misses, seed));
}

std::uint64_t
configFingerprint(const SystemConfig &cfg)
{
    ckpt::Serializer s;
    s.u8(static_cast<std::uint8_t>(cfg.scheme));

    const OramConfig &o = cfg.oram;
    s.u64(o.dataBlocks);
    s.u64(o.blockBytes);
    s.u32(o.slotsPerBucket);
    s.u32(o.evictionRate);
    s.f64(o.utilization);
    s.u32(o.stashCapacity);
    s.u8(static_cast<std::uint8_t>(o.posMapMode));
    s.u64(o.plbBytes);
    s.u64(o.onChipPosMapEntries);
    s.u32(o.treetopLevels);
    s.u8(o.xorCompression ? 1 : 0);
    s.u8(o.payloadEnabled ? 1 : 0);
    s.u8(o.serveFromShadow ? 1 : 0);
    s.u8(o.recirculateShadows ? 1 : 0);
    s.u64(o.aesLatency);
    s.u64(o.stashHitLatency);
    s.u64(o.onChipLatency);
    s.f64(o.fault.rate);
    s.u64(o.fault.seed);
    s.u8(o.fault.bitFlips ? 1 : 0);
    s.u8(o.fault.droppedWrites ? 1 : 0);
    s.u8(o.fault.stuckBits ? 1 : 0);
    s.u32(o.fault.stuckWrites);
    s.u8(static_cast<std::uint8_t>(o.fault.onUnrecoverable));
    s.u32(o.fault.burstEvery);
    s.u32(o.fault.burstLen);
    s.u32(o.fault.subtreeLevels);
    s.u64(o.fault.subtreePrefix);
    s.u32(o.health.quarantineThreshold);
    s.u32(o.health.stashHighWatermark);
    s.u32(o.health.stashLowWatermark);
    s.u64(o.seed);

    const ShadowConfig &sh = cfg.shadow;
    s.u8(static_cast<std::uint8_t>(sh.mode));
    s.u32(sh.staticLevel);
    s.u32(sh.driCounterBits);
    s.u32(sh.hotCacheEntries);
    s.u32(sh.hotCacheAssoc);
    s.u8(sh.refillQueues ? 1 : 0);

    const DramTiming &t = cfg.dramTiming;
    s.u64(t.cpuPerMemClk);
    s.u64(t.tCL);
    s.u64(t.tCWL);
    s.u64(t.tRCD);
    s.u64(t.tRP);
    s.u64(t.tRAS);
    s.u64(t.tRC);
    s.u64(t.tCCD);
    s.u64(t.tBURST);
    s.u64(t.tWTR);
    s.u64(t.tRTW);
    s.u64(t.tWR);
    s.u64(t.tRRD);

    const DramGeometry &g = cfg.dramGeometry;
    s.u32(g.channels);
    s.u32(g.ranksPerChannel);
    s.u32(g.banksPerRank);
    s.u64(g.rowBytes);
    s.u64(g.blockBytes);

    s.u8(cfg.timingProtection ? 1 : 0);
    s.u64(cfg.tpInterval);
    s.u8(cfg.virtualDummies ? 1 : 0);
    s.u8(static_cast<std::uint8_t>(cfg.cpu));
    s.u32(cfg.cores);
    s.u32(cfg.window);
    s.u8(cfg.recordPerMiss ? 1 : 0);
    s.u64(cfg.watchdogInterval);
    // maxAutoRollbacks is semantic: a rollback shifts the fault
    // realization, so runs with different budgets can end with
    // different counters.
    s.u32(cfg.maxAutoRollbacks);
    // checkpointInterval, interruptAfterAccesses and obs are
    // intentionally omitted: they change when snapshots happen and
    // what gets recorded about a run, never the result.

    return ckpt::fnv1a(s.buffer().data(), s.buffer().size());
}

void
saveRunMetrics(ckpt::Serializer &out, const RunMetrics &m)
{
    serdeRunMetrics(m, out);
}

RunMetrics
loadRunMetrics(ckpt::Deserializer &in)
{
    RunMetrics m;
    serdeRunMetrics(m, in);
    return m;
}

} // namespace sboram
