#include "System.hh"

#include <memory>

#include "baseline/InsecureMemory.hh"
#include "common/Errors.hh"
#include "mem/EnergyModel.hh"
#include "obs/MetricNames.hh"
#include "obs/Observer.hh"
#include "sim/Controller.hh"
#include "sim/RunFrame.hh"
#include "workload/SpecProfiles.hh"

namespace sboram {

namespace {

/** The CPU model's memory port: forwards each request to the front
 *  end's issue call and, under recordPerMiss, logs its forward time. */
template <class Issue>
struct ForwardPort : MemoryPort
{
    Issue issue;
    std::vector<Cycles> *record;

    ForwardPort(Issue i, std::vector<Cycles> *r) : issue(i), record(r) {}

    MemoryReply
    request(Addr addr, Op op, Cycles issueTime) override
    {
        const Cycles forwardAt = issue(addr, op, issueTime);
        if (record != nullptr)
            record->push_back(forwardAt);
        return MemoryReply{forwardAt};
    }
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
    ar.f64(m.energy);
    ar.u32(m.finalPartitionLevel);
    OramStats::serde(m.oram, ar);
    StashStats::serde(m.stash, ar);
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
    EnergyModel energy(DramEnergy{}, SystemConfig::dramGeometry.channels);

    // The run frame: the observability hub (null unless the config
    // opts in, so every hook below stays a single branch on a cold
    // pointer), the checkpoint cadence and resume.
    RunFrame frame(cfg.obs, session, cfg.checkpointInterval,
                   cfg.interruptAfterAccesses, "accesses");
    frame.countCheckpoints();
    obs::RunObserver *const obsPtr = frame.observer();

    CpuCursor cursor;
    // After every completed memory request: the observer's tick, then
    // the frame's checkpoint cadence.  With no session, no interrupt
    // seam and no observer the hook is empty and the CPU models skip
    // it entirely.
    CpuStepHook hook;
    if (!frame.idle())
        hook = [&frame](const CpuCursor &cur) {
            if (obs::RunObserver *o = frame.observer())
                o->onAccessBoundary(cur.accessesDone,
                                    cur.partial.finishTime,
                                    cur.lastIssue, cur.lastForward);
            frame.step(cur.accessesDone, cur.partial.finishTime);
        };
    auto runCpu = [&](auto issue) -> CpuRunResult {
        ForwardPort<decltype(issue)> port(
            issue, cfg.recordPerMiss ? &m.missRetireTimes : nullptr);
        if (cfg.cpu == CpuKind::InOrder)
            return InOrderCpu().run(trace, port, cursor, hook);
        return OooCpu(cfg.cores, cfg.window)
            .run(perCoreTraces(trace, cfg.cores, cfg.oram.dataBlocks),
                 port, cursor, hook);
    };

    if (cfg.scheme == Scheme::Insecure) {
        DramModel dram(SystemConfig::dramTiming, SystemConfig::dramGeometry);
        InsecureMemory mem(dram);
        if (obsPtr != nullptr)
            obsPtr->sealRegistry();
        frame.bind(
            [&](auto &io) {
                io.section(ckpt::kSectionCpu,
                           [&](auto &ar) { ar.nested(cursor); });
                io.section(ckpt::kSectionMem,
                           [&](auto &ar) { ar.nested(mem); });
                io.section(ckpt::kSectionDram,
                           [&](auto &ar) { ar.nested(dram); });
                io.section(ckpt::kSectionMetrics,
                           [&](auto &ar) { serdeCarried(m, ar); });
            },
            cursor.accessesDone);
        frame.resume();
        CpuRunResult r = runCpu([&mem](Addr a, Op op, Cycles t) {
            return mem.access(a, op, t).forwardAt;
        });
        m.execTime = r.finishTime;
        m.dataAccessTime = static_cast<double>(mem.busy());
        m.driTime = static_cast<double>(m.execTime) - m.dataAccessTime;
        m.requests = r.reads + r.writes;
        m.energy = energy.totalEnergy(dram.stats(), m.execTime);
        frame.finish(cursor.accessesDone, m.execTime);
        return m;
    }

    Controller ctrl(cfg, Controller::FrontEnd::Batch,
                    configFingerprint(cfg));
    TinyOram &oram = ctrl.oram();
    ShadowPolicy *const shadowPolicy = ctrl.shadowPolicy();
    // Always-on flight recorder for the recovery ladder: quarantines
    // and degraded transitions from the controller, rollbacks and
    // corruption rethrows from the tier-3 loop below.
    obs::FlightRecorder &flight = ctrl.flight();

    if (obsPtr != nullptr) {
        ctrl.attach(obsPtr);
        if (cfg.obs.metrics) {
            obs::MetricRegistry &reg = obsPtr->registry();
            // Controller counters are polled as gauges: the ORAM hot
            // path keeps its existing OramStats increments and pays
            // nothing extra per access.
            const auto stat = [&oram](std::uint64_t OramStats::*field) {
                return [&oram, field] {
                    return static_cast<double>(oram.stats().*field);
                };
            };
            reg.gauge(obs::kMetricRequests, stat(&OramStats::requests));
            reg.gauge(obs::kMetricStashHits, stat(&OramStats::stashHits));
            reg.gauge(obs::kMetricPathReads, stat(&OramStats::pathReads));
            reg.gauge(obs::kMetricShadowForwards,
                      stat(&OramStats::shadowForwards));
            reg.gauge(obs::kMetricShadowsWritten,
                      stat(&OramStats::shadowsWritten));
            reg.gauge(obs::kMetricFaultsDetected,
                      stat(&OramStats::faultsDetected));
            reg.gauge(obs::kMetricFaultsRecovered,
                      stat(&OramStats::faultsRecovered));
            reg.gauge(obs::kMetricQuarantinedSlots, [&oram] {
                return static_cast<double>(
                    oram.health().quarantinedCount());
            });
            reg.gauge(obs::kMetricDegraded, [&oram] {
                return oram.health().degraded() ? 1.0 : 0.0;
            });
            reg.gauge(obs::kMetricDegradedEntries,
                      stat(&OramStats::degradedEntries));
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

    const bool autoRollback =
        session != nullptr && cfg.maxAutoRollbacks > 0;
    // Only auto-rollback sessions pay for the pre-commit patrol scrub;
    // plain checkpointing tolerates latent corruption in a snapshot
    // because it never restores one mid-run.
    RunFrame::ScrubFn scrub;
    if (autoRollback)
        scrub = [&oram] { return oram.scrubStorage(); };
    frame.bind(
        [&](auto &io) {
            io.section(ckpt::kSectionCpu,
                       [&](auto &ar) { ar.nested(cursor); });
            Controller::sections(ctrl, io);
            io.section(ckpt::kSectionMetrics,
                       [&](auto &ar) { serdeCarried(m, ar); });
            io.section(ckpt::kSectionReqObs,
                       [&](auto &ar) { ar.nested(flight); });
        },
        cursor.accessesDone, scrub);
    // Auto-rollback's last line of defense: a fault can corrupt a
    // stored ciphertext long before the next read detects it, so a
    // cadence snapshot taken in that window captures the poison and
    // rolling back to it deterministically reproduces the identical
    // failure.  Keep the pristine access-0 state as an in-memory
    // image (captured before any resume mutates it) so the ladder can
    // escalate to a clean restart from the trace start.
    std::vector<std::uint8_t> pristineImage;
    if (autoRollback)
        pristineImage = frame.image();
    const bool resumed = frame.resume();
    if (autoRollback && !resumed) {
        // Auto-rollback needs a restore point even for corruption
        // that strikes before the first cadence snapshot: commit the
        // pristine access-0 state up front.
        frame.commit();
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
    CpuRunResult r;
    for (;;) {
        try {
            r = runCpu([&ctrl](Addr a, Op op, Cycles t) {
                return ctrl.issue(a, op, t).forwardAt;
            });
            break;
        } catch (const CorruptionError &) {
            flight.record(cursor.partial.finishTime,
                          obs::FlightKind::Corruption,
                          cursor.accessesDone, rollbacksUsed);
            const std::uint64_t failedAt = cursor.accessesDone;
            const bool budgetLeft = session != nullptr &&
                                    rollbacksUsed < cfg.maxAutoRollbacks;
            // Escalation within tier 3: when the replay reproduces
            // the failure at the same access, the restored snapshot
            // itself carries the failure (a latent corruption the
            // pre-commit scrub could not heal, or a serialized stuck
            // cell) — abandon the cadence snapshots and restart clean
            // from the trace start.
            std::unique_ptr<ckpt::SnapshotReader> reader;
            if (budgetLeft && failedAt != lastFailedAt)
                reader = session->loadLatest();
            if (budgetLeft && !reader && !pristineImage.empty())
                reader = std::make_unique<ckpt::SnapshotReader>(
                    pristineImage);
            if (!reader) {
                // Fatal: hand the ring to the panic path before the
                // rethrow unwinds this frame.
                ctrl.panicFlush();
                throw;
            }
            // The Metrics section in the restored image predates this
            // ladder's own activity; carry the live counters across
            // the restore so rollbacks are never undercounted.
            const std::uint64_t priorRollbacks = m.rollbacks;
            const std::uint64_t priorReplayed = m.replayedAccesses;
            frame.restore(*reader);
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
            if (obs::TraceSession *t = frame.trace())
                t->instant(obs::kTrackCheckpoint, "auto_rollback",
                           cursor.partial.finishTime);
        }
    }

    m.execTime = r.finishTime;
    m.dataAccessTime = static_cast<double>(ctrl.dataBusy());
    m.driTime = static_cast<double>(m.execTime) - m.dataAccessTime;
    if (m.driTime < 0.0)
        m.driTime = 0.0;

    m.requests = r.reads + r.writes;
    m.energy = energy.totalEnergy(ctrl.dram().stats(), m.execTime);
    m.oram = oram.stats();
    m.stash = oram.stash().stats();
    // m.rollbacks / m.replayedAccesses are maintained by the tier-3
    // loop above (and restored from the snapshot on resume).
    if (shadowPolicy)
        m.finalPartitionLevel = shadowPolicy->partitionLevel();
    ctrl.publishFlight();
    frame.finish(cursor.accessesDone, m.execTime);
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
    // The Table I constants (block size, latencies, hot-cache size,
    // DRAM) keep their words, so every fingerprint keeps its bytes.
    ckpt::Serializer s;
    s.u8(static_cast<std::uint8_t>(cfg.scheme));

    const OramConfig &o = cfg.oram;
    s.u64(o.dataBlocks);
    s.u64(kBlockBytes);
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
    s.u64(OramConfig::aesLatency);
    s.u64(OramConfig::stashHitLatency);
    s.u64(OramConfig::onChipLatency);
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
    s.u32(kHotCacheEntries);
    s.u32(kHotCacheAssoc);
    s.u8(sh.refillQueues ? 1 : 0);

    const DramTiming &t = SystemConfig::dramTiming;
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

    const DramGeometry &g = SystemConfig::dramGeometry;
    s.u32(g.channels);
    s.u32(g.ranksPerChannel);
    s.u32(g.banksPerRank);
    s.u64(g.rowBytes);
    s.u64(kBlockBytes);

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
