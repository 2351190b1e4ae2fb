/**
 * @file
 * svc-ladder: ServicePipeline::run over a fixed ladder of Poisson
 * arrival rates, from service_storm's under-loaded `steady` gap (3000
 * cycles) to well past saturation, with the `tiny` policy on
 * service_storm's serviceBase() (2^12 blocks, on-chip position map,
 * payload off).
 *
 * Each rung's issued control sequence is replayed against a bare
 * TinyOram: the replay must reproduce the rung's external leaf
 * sequence (the obliviousness oracle of tests/svc/ServiceTest.cc),
 * and its timed access calls give the controller's share of the
 * pipeline's host time.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "Workloads.hh"
#include "common/Errors.hh"
#include "svc/Service.hh"
#include "workload/Arrivals.hh"

namespace perfbench {

using namespace sboram;

namespace {

constexpr std::uint64_t kRequestsPerRung = 20000;
/** Mean arrival gaps in cycles, lightest load first. */
const std::vector<double> kLadderGaps = {
    3000, 2000, 1500, 1200, 1150, 1100, 1050, 1000,
    900, 800, 720, 640, 560, 480, 400,
};
/** p99 limit for the capacity rung: ~2.5x the 2,087-cycle
 *  under-loaded tiny p99 of bench/BENCH_latency.json. */
constexpr Cycles kP99LimitCycles = 5200;

svc::ServiceConfig
rungConfig(std::uint64_t seed, double gap)
{
    svc::ServiceConfig cfg;
    cfg.scheme = Scheme::Tiny;
    cfg.oram.dataBlocks = std::uint64_t(1) << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.arrivals.kind = ArrivalKind::Poisson;
    cfg.arrivals.meanGapCycles = gap;
    cfg.arrivals.addressBlocks = std::uint64_t(1) << 10;
    cfg.arrivals.zipfAlpha = 1.0;
    cfg.arrivals.writeFraction = 0.2;
    cfg.arrivals.seed = seed;
    cfg.requests = kRequestsPerRung;
    cfg.queueCapacity = 64;
    cfg.queueHighWatermark = 48;
    cfg.queueLowWatermark = 16;
    cfg.deadline = 150'000;
    cfg.maxRetries = 2;
    cfg.retryBackoffCycles = 2'000;
    return cfg;
}

struct RungOut
{
    double gap = 0.0;
    bool stalled = false;
    svc::ServiceStats stats;
    double arrivalGenS = 0.0;
    double constructS = 0.0;
    double runS = 0.0;
    double replayS = 0.0;
    std::uint64_t accesses = 0;
    Cycles replayEnd = 0;
    bool replayMatches = true;
    std::uint64_t digest = kDigestSeed;
};

struct RungSinks
{
    LatencyHistogram *opUs = nullptr;  ///< Untraced replays.
    Tracer *tracer = nullptr;
    LayerAgg *agg = nullptr;
    IsolatedTimings *iso = nullptr;
};

RungOut
runRung(const svc::ServiceConfig &cfg, RungSinks &io)
{
    RungOut out;
    out.gap = cfg.arrivals.meanGapCycles;
    const std::int64_t t0 = nowNs();
    std::vector<ArrivalRecord> arrivals;
    arrivals.reserve(cfg.requests);
    ArrivalGenerator gen(cfg.arrivals);
    for (std::uint64_t i = 0; i < cfg.requests; ++i)
        arrivals.push_back(gen.next());
    const std::int64_t t1 = nowNs();
    svc::ServicePipeline pipeline(cfg);
    pipeline.injectArrivals(std::move(arrivals));
    ProbeSink sink;
    pipeline.setTraceSink(&sink);
    std::vector<svc::ControlRecord> control;
    pipeline.setControlLog(&control);
    const std::int64_t t2 = nowNs();
    try {
        out.stats = pipeline.run();
    } catch (const ServiceStallError &) {
        out.stalled = true;
    }
    const std::int64_t t3 = nowNs();
    out.arrivalGenS = static_cast<double>(t1 - t0) / 1e9;
    out.constructS = static_cast<double>(t2 - t1) / 1e9;
    out.runS = static_cast<double>(t3 - t2) / 1e9;

    // Replay against a bare controller: same OramConfig, tiny policy,
    // back-to-back issue times.
    Tracer *tracer = io.tracer;
    DramModel dram(cfg.dramTiming, cfg.dramGeometry);
    ProbePolicy *probe = nullptr;
    std::unique_ptr<DuplicationPolicy> policy;
    if (tracer != nullptr) {
        auto p = std::make_unique<ProbePolicy>(
            std::make_unique<NullDuplicationPolicy>(), tracer);
        probe = p.get();
        policy = std::move(p);
    }
    TinyOram oram(cfg.oram, dram, std::move(policy));
    ProbeSink replaySink(tracer);
    oram.setTraceSink(&replaySink);
    CounterSnap before;
    if (tracer != nullptr)
        before = snapCounters(oram, dram, probe, nullptr);
    const std::uint64_t opBase = io.agg ? io.agg->ops : 0;
    Cycles t = 0;
    const std::int64_t t4 = nowNs();
    for (const svc::ControlRecord &rec : control) {
        if (rec.kind == svc::ControlRecord::Kind::Pressure) {
            oram.noteServicePressure(rec.pressureOn);
            continue;
        }
        if (tracer != nullptr)
            tracer->beginOp(
                static_cast<std::uint32_t>(opBase + out.accesses));
        const std::int64_t a0 = nowNs();
        t = oram.access(rec.addr, rec.isWrite ? Op::Write : Op::Read, t)
                .completeAt;
        const std::int64_t a1 = nowNs();
        if (tracer != nullptr) {
            tracer->endOp();
            io.agg->stashShadowSum +=
                static_cast<double>(oram.stash().shadowCount());
        } else {
            io.opUs->add(static_cast<double>(a1 - a0) / 1000.0);
        }
        ++out.accesses;
    }
    out.replayS = static_cast<double>(nowNs() - t4) / 1e9;
    out.replayEnd = t;
    out.replayMatches = replaySink.hash() == sink.hash() &&
                        replaySink.events() == sink.events();

    if (tracer != nullptr) {
        io.agg->addDelta(before, snapCounters(oram, dram, probe, nullptr));
        io.agg->ops += out.accesses;
        io.agg->stashRealPeak = std::max<std::uint64_t>(
            io.agg->stashRealPeak, oram.stash().stats().peakReal);
        if (io.iso != nullptr) {
            timePathBatch(oram, dram, *io.iso);
            io.iso = nullptr;
        }
    }

    const svc::ServiceStats &s = out.stats;
    std::uint64_t h = kDigestSeed;
    for (std::uint64_t v :
         {std::uint64_t(out.stalled), s.arrivals, s.admitted, s.completed,
          s.dedupJoins, s.shadowEarlyCompletions, s.requestsShed,
          s.shedAdmission, s.shedDeadline, s.retries, s.deadlineMisses,
          s.maxQueueDepth, s.backpressureEntries, s.backpressureExits,
          s.issuedAccesses, s.finishTime, s.latencyP50, s.latencyP99,
          s.latencyP999, s.latencyMax, s.oram.pathReads,
          s.oram.pathWrites, s.oram.stashHits, s.stageBalanceViolations,
          sink.hash(), sink.events(), out.replayEnd,
          dram.stats().reads, dram.stats().writes, dram.stats().rowHits,
          oram.stash().stats().peakReal})
        h = mix(h, v);
    for (const obs::StageCut &cut : s.stages)
        for (std::uint64_t v : {cut.count, cut.p50, cut.p99, cut.total})
            h = mix(h, v);
    out.digest = h;
    return out;
}

} // namespace

RunResult
runSvcLadder(const Options &opt)
{
    RunResult r;
    Tracer tracer;
    LayerAgg agg;
    IsolatedTimings iso;
    std::vector<double> rateRun, rateUntraced, rateTraced, setupS,
        arrivalGenS, constructS, p50s, p99s;
    double untracedRunS = 0.0, untracedReplayS = 0.0;
    std::uint64_t untracedResolved = 0, untracedAccesses = 0;
    std::vector<RungOut> first;
    std::uint64_t firstDigest = 0;
    const std::int64_t start = nowNs();
    const unsigned minPasses = opt.trace ? 4 : 2;
    for (unsigned pass = 0;; ++pass) {
        const double elapsed =
            static_cast<double>(nowNs() - start) / 1e9;
        if (pass >= minPasses && elapsed >= opt.seconds)
            break;
        const bool traced = opt.trace && pass % 2 == 1;
        LatencyHistogram opUs;
        RungSinks io;
        io.opUs = &opUs;
        if (traced) {
            io.tracer = &tracer;
            io.agg = &agg;
            io.iso = pass == 1 ? &iso : nullptr;
        }
        std::vector<RungOut> rungs;
        std::uint64_t digest = kDigestSeed;
        double runS = 0.0, replayS = 0.0, gen = 0.0, construct = 0.0;
        std::uint64_t resolved = 0, accesses = 0;
        for (double gap : kLadderGaps) {
            RungOut rung = runRung(rungConfig(opt.seed, gap), io);
            digest = mix(digest, rung.digest);
            runS += rung.runS;
            replayS += rung.replayS;
            gen += rung.arrivalGenS;
            construct += rung.constructS;
            resolved += rung.stats.completed + rung.stats.requestsShed;
            accesses += rung.accesses;
            r.attempted += kRequestsPerRung;
            // Requests the pipeline never resolved: a watchdog trip
            // or a lost request.
            r.failed += rung.stalled
                            ? kRequestsPerRung
                            : kRequestsPerRung -
                                  (rung.stats.completed +
                                   rung.stats.requestsShed);
            if (!rung.replayMatches)
                r.fail("replay of the gap-" +
                       std::to_string(static_cast<int>(gap)) +
                       " control log does not reproduce its trace");
            rungs.push_back(std::move(rung));
        }
        if (pass == 0) {
            first = std::move(rungs);
            firstDigest = digest;
        } else if (digest != firstDigest) {
            r.fail("simulated digest of pass " + std::to_string(pass) +
                   (traced ? " (traced)" : "") + " differs from pass 0");
        }
        // Only the replay is traced, so the overhead compares replays.
        (traced ? rateTraced : rateUntraced)
            .push_back(static_cast<double>(accesses) / replayS);
        if (!traced) {
            rateRun.push_back(static_cast<double>(resolved) / runS);
            p50s.push_back(opUs.percentile(0.50));
            p99s.push_back(opUs.percentile(0.99));
            untracedRunS += runS;
            untracedReplayS += replayS;
            untracedResolved += resolved;
            untracedAccesses += accesses;
        }
        setupS.push_back(gen + construct);
        arrivalGenS.push_back(gen);
        constructS.push_back(construct);
    }
    if (r.failed != 0)
        r.fail(std::to_string(r.failed) + " unresolved requests");

    std::uint64_t arrivals = 0, completed = 0, shed = 0, issued = 0,
                  joins = 0, maxDepth = 0, bpEntries = 0, accesses = 0;
    Cycles replayCycles = 0;
    double capacity = 0.0;
    for (const RungOut &rung : first) {
        const svc::ServiceStats &s = rung.stats;
        arrivals += s.arrivals;
        completed += s.completed;
        shed += s.requestsShed;
        issued += s.issuedAccesses;
        joins += s.dedupJoins;
        maxDepth = std::max(maxDepth, s.maxQueueDepth);
        bpEntries += s.backpressureEntries;
        accesses += rung.accesses;
        replayCycles += rung.replayEnd;
        if (!rung.stalled && s.latencyP99 <= kP99LimitCycles &&
            s.shedAdmission == 0)
            capacity = std::max(capacity, 1e6 / rung.gap);
    }
    for (const RungOut &rung : first) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "rung gap %.0f p99 %llu shed_admission %llu "
                      "shed_deadline %llu completed %llu",
                      rung.gap,
                      static_cast<unsigned long long>(rung.stats.latencyP99),
                      static_cast<unsigned long long>(rung.stats.shedAdmission),
                      static_cast<unsigned long long>(rung.stats.shedDeadline),
                      static_cast<unsigned long long>(rung.stats.completed));
        r.notes.push_back(line);
    }
    const svc::ServiceStats &steady = first.front().stats;
    const svc::ServiceStats &top = first.back().stats;

    std::map<std::string, double> v;
    if (!opt.trace) {
        v["ops_per_s"] = highest(rateRun);
        v["op_us_p50"] = lowest(p50s);
        // One pass's p99 rests on a few dozen calls, so its
        // minimum over passes would pick noise; its median does not.
        v["op_us_p99"] = median(p99s);
        v["setup_s"] = lowest(setupS);
        v["peak_rss_mb"] = peakRssMb();
        // Replay issues back to back, so this is the controller's
        // service time per access.
        v["sim_cycles_per_op"] = static_cast<double>(replayCycles) /
                                 static_cast<double>(accesses);
        v["svc_capacity_req_per_mcycle"] = capacity;
        v["svc_p99_cycles"] = static_cast<double>(steady.latencyP99);
        v["svc_goodput"] = top.arrivals
            ? static_cast<double>(top.completed) /
                  static_cast<double>(top.arrivals)
            : 0.0;
    } else {
        agg.spans = tracer.totals();
        layerValues(agg, v);
        v["mem.path_batch_us"] = iso.pathBatchUs;
        v["svc.self_us_per_req"] =
            (untracedRunS - untracedReplayS) * 1e6 /
            static_cast<double>(untracedResolved);
        v["svc.oram_replay_us_per_access"] =
            untracedReplayS * 1e6 / static_cast<double>(untracedAccesses);
        v["svc.queue_wait_p99_cycles"] = static_cast<double>(
            steady.stages[obs::kStageIdQueueWait].p99);
        v["svc.path_access_p99_cycles"] = static_cast<double>(
            steady.stages[obs::kStageIdPathAccess].p99);
        v["svc.issued_per_resolved"] =
            static_cast<double>(issued) /
            static_cast<double>(completed + shed);
        v["svc.dedup_join_ratio"] =
            static_cast<double>(joins) / static_cast<double>(completed);
        v["svc.shed_frac"] =
            static_cast<double>(shed) / static_cast<double>(arrivals);
        v["svc.max_queue_depth"] = static_cast<double>(maxDepth);
        v["svc.backpressure_entries"] = static_cast<double>(bpEntries);
        v["oram.construct_s"] = lowest(constructS);
        v["workload.trace_gen_s"] = lowest(arrivalGenS);
        const double untraced = highest(rateUntraced);
        const double traced = highest(rateTraced);
        v["trace.untraced_ops_per_s"] = untraced;
        v["trace.traced_ops_per_s"] = traced;
        v["trace.overhead_frac"] = traced > 0 ? untraced / traced - 1 : 0;
        if (agg.spans.balanceViolations != 0)
            r.fail(std::to_string(agg.spans.balanceViolations) +
                   " ops whose spans do not balance");
    }
    emitMetrics(r, v, opt.trace);

    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "digest %016llx passes %zu failed_frac %.6g "
                  "(sheds+watchdog over arrivals; sheds are the designed "
                  "overload outcome, not failed ops)",
                  static_cast<unsigned long long>(firstDigest),
                  setupS.size(),
                  static_cast<double>(shed + r.failed) /
                      static_cast<double>(arrivals));
    r.notes.push_back(buf);
    if (opt.trace && !opt.spansOut.empty() &&
        !writeSpans(opt.spansOut, opt.workload, tracer.retained()))
        r.notes.push_back("warning: cannot write " + opt.spansOut);
    return r;
}

} // namespace perfbench
