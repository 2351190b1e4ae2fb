/**
 * @file
 * The service pipeline's contracts, tested one mechanism at a time:
 * every arrival reaches exactly one terminal outcome, scheduling is a
 * pure function of the config (bit-identical stats across runs),
 * same-address dedup fans one path read out to every waiting reader,
 * overload sheds deterministically with the queue bounded, deadline
 * expiry walks retry-then-shed, the liveness watchdog converts a
 * stalled scheduler into a structured error, and — the security
 * contract — the externally visible access trace is reproducible from
 * the issued control sequence alone, faults, backpressure and all.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../obs/PanicFlightUtil.hh"
#include "../oram/OramTestUtil.hh"
#include "common/Errors.hh"
#include "security/TraceRecorder.hh"
#include "svc/Service.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

/** Small functional service point: on-chip posmap, hot Zipf space. */
svc::ServiceConfig
serviceConfig()
{
    svc::ServiceConfig cfg;
    cfg.oram.dataBlocks = 1 << 10;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.oram.seed = 7;
    cfg.shadow.mode = ShadowMode::HdOnly;
    cfg.arrivals.clients = 1000;
    cfg.arrivals.addressBlocks = 256;
    cfg.arrivals.meanGapCycles = 2500.0;
    cfg.arrivals.seed = 21;
    cfg.requests = 500;
    cfg.queueCapacity = 32;
    cfg.queueHighWatermark = 24;
    cfg.queueLowWatermark = 8;
    cfg.deadline = 120'000;
    return cfg;
}

/** Bursty arrivals well past the drain rate: the overload drill. */
svc::ServiceConfig
overloadConfig()
{
    svc::ServiceConfig cfg = serviceConfig();
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.meanGapCycles = 400.0;
    cfg.arrivals.burstFactor = 6.0;
    cfg.arrivals.burstOnCycles = 60'000;
    cfg.arrivals.burstOffCycles = 120'000;
    cfg.deadline = 30'000;
    cfg.maxRetries = 1;
    return cfg;
}

ArrivalRecord
at(Cycles arrival, Addr addr, bool isWrite, std::uint64_t client = 0)
{
    ArrivalRecord r;
    r.arrival = arrival;
    r.client = client;
    r.addr = addr;
    r.isWrite = isWrite;
    return r;
}

void
expectSameStats(const svc::ServiceStats &a,
                const svc::ServiceStats &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dedupJoins, b.dedupJoins);
    EXPECT_EQ(a.shadowEarlyCompletions, b.shadowEarlyCompletions);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
    EXPECT_EQ(a.shedAdmission, b.shedAdmission);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.backpressureEntries, b.backpressureEntries);
    EXPECT_EQ(a.backpressureExits, b.backpressureExits);
    EXPECT_EQ(a.issuedAccesses, b.issuedAccesses);
    EXPECT_EQ(a.finishTime, b.finishTime);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.latencyP999, b.latencyP999);
    EXPECT_EQ(a.latencyMax, b.latencyMax);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
    EXPECT_EQ(a.oram.pathReads, b.oram.pathReads);
    EXPECT_EQ(a.oram.shadowForwards, b.oram.shadowForwards);
    EXPECT_EQ(a.oram.shadowsWritten, b.oram.shadowsWritten);
    EXPECT_EQ(a.oram.faultsInjected, b.oram.faultsInjected);
    EXPECT_EQ(a.oram.faultsRecovered, b.oram.faultsRecovered);
}

} // namespace

TEST(Service, EveryArrivalReachesOneTerminalOutcome)
{
    const svc::ServiceStats s = svc::runService(serviceConfig());
    EXPECT_EQ(s.arrivals, 500u);
    EXPECT_EQ(s.completed + s.requestsShed, s.arrivals);
    EXPECT_EQ(s.resolvedFraction(), 1.0);
    EXPECT_EQ(s.admitted + s.shedAdmission, s.arrivals);
    EXPECT_GT(s.issuedAccesses, 0u);
    EXPECT_GT(s.latencyP50, 0u);
    EXPECT_GE(s.latencyP99, s.latencyP50);
    EXPECT_GE(s.latencyMax, s.latencyP999);
}

TEST(Service, SchedulingIsAPureFunctionOfTheConfig)
{
    // Two fresh pipelines over the same config — including the
    // overload machinery — must agree on every stat bit for bit.
    const svc::ServiceStats a = svc::runService(overloadConfig());
    const svc::ServiceStats b = svc::runService(overloadConfig());
    expectSameStats(a, b);
}

TEST(Service, DedupFansOnePathReadOutToAllWaitingReaders)
{
    svc::ServiceConfig cfg = serviceConfig();
    svc::ServicePipeline pipeline(cfg);
    // Four readers of the same block arrive together; one path read
    // must serve all of them.  The write to another block stays its
    // own access.
    pipeline.injectArrivals({at(0, 5, false, 1), at(0, 5, false, 2),
                             at(0, 5, false, 3), at(0, 5, false, 4),
                             at(0, 9, true, 5)});
    const svc::ServiceStats s = pipeline.run();
    EXPECT_EQ(s.arrivals, 5u);
    EXPECT_EQ(s.completed, 5u);
    EXPECT_EQ(s.dedupJoins, 3u);
    EXPECT_EQ(s.issuedAccesses, 2u);
    EXPECT_EQ(s.requestsShed, 0u);
}

TEST(Service, WritesNeverFanOut)
{
    // Write-after-write to one address must stay three serialized
    // path accesses: joining writes would drop updates.
    svc::ServiceConfig cfg = serviceConfig();
    svc::ServicePipeline pipeline(cfg);
    pipeline.injectArrivals(
        {at(0, 5, true), at(0, 5, true), at(0, 5, true)});
    const svc::ServiceStats s = pipeline.run();
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.dedupJoins, 0u);
    EXPECT_EQ(s.issuedAccesses, 3u);
}

TEST(Service, DedupHoldsUnderFaultInjection)
{
    // Fan-out correctness with the fault machinery live: faults are
    // healed (or counted) inside the primary's path access, so the
    // joined readers still complete and the join count is unchanged.
    svc::ServiceConfig cfg = serviceConfig();
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.05;
    cfg.oram.fault.seed = 97;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    svc::ServicePipeline pipeline(cfg);
    std::vector<ArrivalRecord> arrivals;
    // 60 waves of 4 same-address readers over a hot set, far enough
    // apart in address space to keep real path reads coming.
    for (std::uint64_t w = 0; w < 60; ++w)
        for (std::uint64_t c = 0; c < 4; ++c)
            arrivals.push_back(
                at(w * 4000, (w * 17) % 256, false, c));
    pipeline.injectArrivals(arrivals);
    const svc::ServiceStats s = pipeline.run();
    EXPECT_EQ(s.completed, arrivals.size());
    EXPECT_GT(s.oram.faultsInjected, 0u);
    EXPECT_GT(s.dedupJoins, 0u);
    EXPECT_EQ(s.completed + s.requestsShed, s.arrivals);
}

TEST(Service, OverloadShedsDeterministicallyWithABoundedQueue)
{
    const svc::ServiceConfig cfg = overloadConfig();
    const svc::ServiceStats s = svc::runService(cfg);
    // Overload is real, every request still terminates, and the
    // queue never outgrew its bound.
    EXPECT_EQ(s.completed + s.requestsShed, s.arrivals);
    EXPECT_EQ(s.resolvedFraction(), 1.0);
    EXPECT_GT(s.requestsShed, 0u);
    // Resolving every arrival is not serving it: goodput counts only
    // the completions, so the sheds must show.
    EXPECT_LT(s.goodput(), 1.0);
    EXPECT_DOUBLE_EQ(s.goodput(), static_cast<double>(s.completed) /
                                      static_cast<double>(s.arrivals));
    EXPECT_LE(s.maxQueueDepth, cfg.queueCapacity);
    // The burst had to cycle the backpressure latch, and the latch
    // always releases by the end of the run.
    EXPECT_GT(s.backpressureEntries, 0u);
    EXPECT_EQ(s.backpressureEntries, s.backpressureExits);
    // Service pressure is NOT degraded mode: it must never trigger
    // the emergency sweeps that would perturb the external trace.
    EXPECT_EQ(s.oram.degradedEntries, 0u);
    EXPECT_EQ(s.oram.emergencyEvictions, 0u);
}

TEST(Service, DeadlineExpiryRetriesWithBackoffThenSheds)
{
    // A backlog of writes (no dedup relief) against a deadline much
    // shorter than the drain time: early requests complete, the tail
    // walks deadline-miss -> jittered retry -> structured shed.
    svc::ServiceConfig cfg = serviceConfig();
    cfg.deadline = 3000;
    cfg.maxRetries = 1;
    cfg.retryBackoffCycles = 500;
    svc::ServicePipeline pipeline(cfg);
    std::vector<ArrivalRecord> arrivals;
    for (std::uint64_t i = 0; i < 24; ++i)
        arrivals.push_back(at(0, i, true, i));
    pipeline.injectArrivals(arrivals);
    const svc::ServiceStats s = pipeline.run();
    EXPECT_EQ(s.completed + s.requestsShed, 24u);
    EXPECT_GT(s.completed, 0u);
    EXPECT_GT(s.deadlineMisses, 0u);
    EXPECT_GT(s.retries, 0u);
    EXPECT_GT(s.shedDeadline, 0u);
    // Retry budget accounting: every shed-for-deadline request burned
    // its retry first (maxRetries 1), so misses >= sheds + retries
    // never overdraws.
    EXPECT_GE(s.deadlineMisses, s.shedDeadline);
    EXPECT_EQ(s.shedAdmission + s.shedDeadline, s.requestsShed);
}

TEST(Service, WatchdogConvertsAStallIntoAStructuredError)
{
    svc::ServiceConfig cfg = serviceConfig();
    cfg.testForceStall = true;
    cfg.watchdogBound = 64;
    obs::resetFlightStateForTesting();
    svc::ServicePipeline pipeline(cfg);
    pipeline.injectArrivals(
        {at(0, 1, false), at(0, 2, false), at(0, 3, true)});
    try {
        pipeline.run();
        FAIL() << "a forced stall must trip the watchdog";
    } catch (const ServiceStallError &e) {
        // The panic-diag fields name the stuck state.
        EXPECT_EQ(e.queueDepth(), 3u);
        EXPECT_EQ(e.inFlight(), 3u);
        EXPECT_EQ(e.served(), 0u);
        EXPECT_NE(std::string(e.what()).find("stalled"),
                  std::string::npos);
    }
    // The trip reached the panic path before the throw.
    expectPanicFlight(
        fingerprintLabel("svc", svc::serviceConfigFingerprint(cfg)),
        "watchdog_trip");
}

TEST(Service, ControlSequenceReplayReproducesTheTraceExactly)
{
    // The obliviousness oracle: everything the service layer does —
    // dedup, shedding, retries, backpressure suppression, fault
    // recovery — must leave the external trace a pure function of the
    // issued control sequence.  Replaying the recorded sequence
    // against a bare controller (same OramConfig/policy, arbitrary
    // issue times) must reproduce the trace bit for bit.
    svc::ServiceConfig cfg = overloadConfig();
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.02;
    cfg.oram.fault.seed = 97;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;

    svc::ServicePipeline pipeline(cfg);
    TraceRecorder serviceTrace;
    pipeline.setTraceSink(&serviceTrace);
    std::vector<svc::ControlRecord> control;
    pipeline.setControlLog(&control);
    const svc::ServiceStats s = pipeline.run();

    // The run must have exercised every mechanism being vetted.
    ASSERT_GT(s.oram.faultsInjected, 0u);
    ASSERT_GT(s.backpressureEntries, 0u);
    ASSERT_GT(s.requestsShed, 0u);
    ASSERT_GT(s.dedupJoins, 0u);

    auto replay = makeShadowFixture(cfg.oram, cfg.shadow);
    TraceRecorder replayTrace;
    replay->oram.setTraceSink(&replayTrace);
    Cycles t = 0;
    for (const svc::ControlRecord &rec : control) {
        if (rec.kind == svc::ControlRecord::Kind::Pressure) {
            replay->oram.noteServicePressure(rec.pressureOn);
            continue;
        }
        t = replay->oram
                .access(rec.addr,
                        rec.isWrite ? Op::Write : Op::Read, t + 100)
                .completeAt;
    }

    ASSERT_EQ(serviceTrace.events().size(),
              replayTrace.events().size());
    for (std::size_t i = 0; i < serviceTrace.events().size(); ++i) {
        ASSERT_TRUE(serviceTrace.events()[i] ==
                    replayTrace.events()[i])
            << "service machinery perturbed the trace at event " << i;
    }
}

TEST(Service, ShadowForwardingCutsServiceLatency)
{
    // The paper's forwarding argument measured at the service level:
    // same arrival stream, duplication on vs off — shadow copies
    // complete reads at forwardAt, well before the path access
    // retires, so the latency distribution shifts left.
    svc::ServiceConfig hd = serviceConfig();
    const svc::ServiceStats withShadow = svc::runService(hd);

    svc::ServiceConfig tiny = serviceConfig();
    tiny.scheme = Scheme::Tiny;
    const svc::ServiceStats without = svc::runService(tiny);

    EXPECT_GT(withShadow.shadowEarlyCompletions, 0u);
    EXPECT_EQ(without.shadowEarlyCompletions, 0u);
    EXPECT_LT(withShadow.latencyP50, without.latencyP50);
}

TEST(Service, FingerprintIgnoresCadenceButSeesSemantics)
{
    const svc::ServiceConfig base = serviceConfig();
    const std::uint64_t fp = svc::serviceConfigFingerprint(base);
    EXPECT_EQ(fp, svc::serviceConfigFingerprint(base));

    // Cadence and test seams resume to the same outcome, so they must
    // not move the checkpoint key.
    svc::ServiceConfig cadence = base;
    cadence.checkpointInterval = 99;
    cadence.interruptAfterResolved = 5;
    cadence.testForceStall = true;
    EXPECT_EQ(fp, svc::serviceConfigFingerprint(cadence));

    // Every scheduler knob is semantic.
    svc::ServiceConfig m = base;
    m.deadline += 1;
    EXPECT_NE(fp, svc::serviceConfigFingerprint(m));
    m = base;
    m.queueCapacity += 1;
    EXPECT_NE(fp, svc::serviceConfigFingerprint(m));
    m = base;
    m.maxRetries += 1;
    EXPECT_NE(fp, svc::serviceConfigFingerprint(m));
    m = base;
    m.arrivals.seed += 1;
    EXPECT_NE(fp, svc::serviceConfigFingerprint(m));
    m = base;
    m.oram.seed += 1;
    EXPECT_NE(fp, svc::serviceConfigFingerprint(m));
    m = base;
    m.shadow.mode = ShadowMode::RdOnly;
    EXPECT_NE(fp, svc::serviceConfigFingerprint(m));
}
