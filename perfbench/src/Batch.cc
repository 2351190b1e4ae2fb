/**
 * @file
 * batch-rd and batch-hd: TinyOram::access driven directly over an
 * mcf LLC-miss trace, in the order sim/System's OramPort issues it
 * without timing protection (stash hits bypass the idle-gap
 * classification; long idle gaps are reported to the policy as
 * virtual dummies), with addresses folded into the data space the
 * way runSystem folds them.
 *
 * One pass = trace generation + controller construction (the set-up),
 * a warm-up prefix, then the timed misses, each TinyOram::access call
 * timed on its own.  Passes repeat on fresh controllers until the run
 * time is used; every pass must produce the same simulated digest.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "Workloads.hh"
#include "crypto/Prf.hh"
#include "shadow/ShadowPolicy.hh"
#include "sim/System.hh"

namespace perfbench {

using namespace sboram;

/** The throughput bench's shadow points. */
SystemConfig
batchConfig(ShadowMode mode)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Shadow;
    cfg.oram.dataBlocks = std::uint64_t(1) << 16;
    cfg.oram.slotsPerBucket = 5;
    cfg.oram.evictionRate = 5;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.plbBytes = 64 * 1024;
    cfg.oram.stashCapacity = 200;
    cfg.oram.payloadEnabled = true;
    cfg.shadow.mode = mode;
    cfg.shadow.staticLevel = 7;
    cfg.shadow.driCounterBits = 3;
    return cfg;
}

namespace {

constexpr std::uint64_t kWarmupMisses = kBatchWarmupMisses;
constexpr std::uint64_t kTimedMisses = kBatchTimedMisses;
constexpr const char *kTraceProfile = "mcf";

/** The trace plus the payload each write stores. */
struct BatchInput
{
    std::vector<LlcMissRecord> trace;
    std::vector<std::vector<std::uint64_t>> writeData;
};

BatchInput
makeInput(const SystemConfig &cfg, std::uint64_t seed)
{
    BatchInput in;
    in.trace = makeTrace(kTraceProfile, kWarmupMisses + kTimedMisses,
                         seed);
    const std::uint64_t words = cfg.oram.blockBytes / 8;
    const PrfKey key{0x7065726662656e63ULL, seed};
    in.writeData.resize(in.trace.size());
    for (std::size_t i = 0; i < in.trace.size(); ++i) {
        LlcMissRecord &rec = in.trace[i];
        rec.addr %= cfg.oram.dataBlocks;
        if (!rec.isWrite)
            continue;
        in.writeData[i].resize(words);
        for (std::uint64_t w = 0; w < words; ++w)
            in.writeData[i][w] = prf64(key, i, w);
    }
    return in;
}

/** One pass over the trace on a fresh controller. */
struct PassOut
{
    double traceGenS = 0.0;
    double constructS = 0.0;
    double timedS = 0.0;
    std::uint64_t digest = kDigestSeed;
    std::uint64_t mismatches = 0;
    std::uint64_t failed = 0;
    Cycles execTime = 0;
    Cycles busy = 0;
    Cycles simLatencyP99 = 0;
};

/** Everything a pass feeds into the run's aggregates. */
struct PassSinks
{
    LatencyHistogram *opUs = nullptr;
    Tracer *tracer = nullptr;       ///< Non-null: traced pass.
    LayerAgg *agg = nullptr;        ///< Traced passes only.
    IsolatedTimings *iso = nullptr; ///< Measured once, if non-null.
    RunResult *result = nullptr;
};

std::uint64_t
digestOf(std::uint64_t h, const TinyOram &oram, DramModel &dram)
{
    const OramStats &o = oram.stats();
    for (std::uint64_t v :
         {o.requests, o.stashHits, o.shadowStashHits, o.onChipHits,
          o.shadowForwards, o.pathReads, o.pathWrites, o.dummyAccesses,
          o.posMapAccesses, o.shadowsWritten, o.evictions,
          o.levelsAdvanced, o.faultsInjected, o.faultsDetected,
          o.faultsRecovered, o.faultsUnrecoverable})
        h = mix(h, v);
    const DramStats &d = dram.stats();
    for (std::uint64_t v :
         {d.activates, d.reads, d.writes, d.rowHits, d.rowMisses})
        h = mix(h, v);
    const StashStats &s = oram.stash().stats();
    for (std::uint64_t v : {s.peakReal, s.overflowEvents,
                            s.mergesRealWins, s.mergesShadowDup})
        h = mix(h, v);
    return h;
}

PassOut
runPass(const SystemConfig &cfg, std::uint64_t seed, PassSinks &io)
{
    PassOut out;
    Tracer *tracer = io.tracer;
    const std::int64_t t0 = nowNs();
    const BatchInput in = makeInput(cfg, seed);
    const std::int64_t t1 = nowNs();

    DramModel dram(cfg.dramTiming, cfg.dramGeometry);
    auto shadow = std::make_unique<ShadowPolicy>(
        cfg.shadow, cfg.oram.deriveLevels());
    const ShadowPolicy *inner = shadow.get();
    ProbePolicy *probe = nullptr;
    std::unique_ptr<DuplicationPolicy> policy;
    if (tracer != nullptr) {
        auto p = std::make_unique<ProbePolicy>(std::move(shadow), tracer);
        probe = p.get();
        policy = std::move(p);
    } else {
        policy = std::move(shadow);
    }
    TinyOram oram(cfg.oram, dram, std::move(policy));
    ProbeSink sink(tracer);
    oram.setTraceSink(&sink);
    // OramPort's idle threshold without timing protection.
    const Cycles idle =
        std::max<Cycles>(1, oram.estimatePathReadLatency());
    const std::int64_t t2 = nowNs();
    out.traceGenS = static_cast<double>(t1 - t0) / 1e9;
    out.constructS = static_cast<double>(t2 - t1) / 1e9;

    std::vector<std::int64_t> lastWrite(cfg.oram.dataBlocks, -1);
    std::vector<double> simLatency;
    simLatency.reserve(in.trace.size());
    CounterSnap before;
    Cycles time = 0;
    Cycles lastComplete = 0;
    std::int64_t timedStart = 0;
    const std::uint64_t opBase = io.agg ? io.agg->ops : 0;
    for (std::size_t i = 0; i < in.trace.size(); ++i) {
        const bool timed = i >= kWarmupMisses;
        if (i == kWarmupMisses) {
            if (tracer != nullptr)
                before = snapCounters(oram, dram, probe, &inner->hotCache());
            timedStart = nowNs();
        }
        const LlcMissRecord &rec = in.trace[i];
        time += rec.computeGap;
        const Op op = rec.isWrite ? Op::Write : Op::Read;
        const Cycles issue = time;
        const bool stashHit = oram.wouldHitStash(rec.addr, op);
        if (!stashHit && lastComplete != 0 &&
            issue > lastComplete + idle) {
            const std::uint64_t n = std::min<std::uint64_t>(
                (issue - lastComplete) / idle, 4);
            for (std::uint64_t k = 0; k < n; ++k)
                oram.policy().onRequestClassified(true);
        }

        if (timed && tracer != nullptr)
            tracer->beginOp(static_cast<std::uint32_t>(
                opBase + i - kWarmupMisses));
        const std::int64_t a0 = nowNs();
        const AccessResult res = oram.access(
            rec.addr, op, issue,
            rec.isWrite ? &in.writeData[i] : nullptr);
        const std::int64_t a1 = nowNs();
        if (timed) {
            if (tracer != nullptr) {
                tracer->endOp();
                io.agg->stashShadowSum +=
                    static_cast<double>(oram.stash().shadowCount());
            }
            io.opUs->add(static_cast<double>(a1 - a0) / 1000.0);
        }

        if (!stashHit) {
            out.busy += res.completeAt - res.start;
            lastComplete = res.completeAt;
        }
        if (rec.isWrite)
            lastWrite[rec.addr] = static_cast<std::int64_t>(i);
        else
            time = std::max(time, res.forwardAt);
        out.execTime = std::max({out.execTime, time, res.forwardAt});
        simLatency.push_back(static_cast<double>(res.forwardAt - issue));
    }
    out.timedS = static_cast<double>(nowNs() - timedStart) / 1e9;

    if (tracer != nullptr) {
        const CounterSnap after =
            snapCounters(oram, dram, probe, &inner->hotCache());
        io.agg->addDelta(before, after);
        io.agg->ops += kTimedMisses;
        io.agg->stashRealPeak = std::max<std::uint64_t>(
            io.agg->stashRealPeak, oram.stash().stats().peakReal);
        // Every slot a path write places or fills with a shadow is
        // encrypted exactly once, so the nonce counter must advance
        // by exactly that many.
        const std::uint64_t placed =
            (after.hooks.placed - before.hooks.placed) +
            (after.oram.shadowsWritten - before.oram.shadowsWritten);
        if (after.nonces - before.nonces != placed)
            io.result->fail("nonce ledger: codec issued " +
                            std::to_string(after.nonces - before.nonces) +
                            " nonces for " + std::to_string(placed) +
                            " placed slots");
        if (io.iso != nullptr) {
            timeCrypto(oram, *io.iso);
            timePathBatch(oram, dram, *io.iso);
            if (!io.iso->verified)
                io.result->fail("isolated verifyDecrypt rejected a slot");
            io.iso = nullptr;
        }
    }

    // Payload oracle: every written address holds its last write.
    for (Addr a = 0; a < cfg.oram.dataBlocks; ++a) {
        if (lastWrite[a] < 0)
            continue;
        const std::vector<std::uint64_t> got = oram.peekPayload(a);
        if (got != in.writeData[static_cast<std::size_t>(lastWrite[a])])
            ++out.mismatches;
    }
    out.failed = out.mismatches + oram.stash().stats().overflowEvents +
                 oram.stats().faultsUnrecoverable;

    out.simLatencyP99 = static_cast<Cycles>(percentile(simLatency, 0.99));
    std::uint64_t h = digestOf(kDigestSeed, oram, dram);
    for (std::uint64_t v : {out.execTime, out.busy, out.simLatencyP99,
                            out.mismatches, sink.hash(), sink.events()})
        h = mix(h, v);
    out.digest = h;
    return out;
}

} // namespace

RunResult
runBatch(const Options &opt)
{
    RunResult r;
    const SystemConfig cfg = batchConfig(
        opt.workload == "batch-rd" ? ShadowMode::RdOnly
                                   : ShadowMode::HdOnly);

    Tracer tracer;
    LayerAgg agg;
    IsolatedTimings iso;
    std::vector<double> rateUntraced, rateTraced, setupS, traceGenS,
        constructS, p50s, p99s;
    PassOut first;
    const std::int64_t start = nowNs();
    // Traced runs alternate untraced and traced passes: the untraced
    // ones give the overhead baseline and the digest to match.
    const unsigned minPasses = opt.trace ? 4 : 2;
    for (unsigned pass = 0;; ++pass) {
        const double elapsed =
            static_cast<double>(nowNs() - start) / 1e9;
        if (pass >= minPasses && elapsed >= opt.seconds)
            break;
        const bool traced = opt.trace && pass % 2 == 1;
        LatencyHistogram opUs;
        PassSinks io;
        io.opUs = &opUs;
        io.result = &r;
        if (traced) {
            io.tracer = &tracer;
            io.agg = &agg;
            io.iso = pass == 1 ? &iso : nullptr;
        }
        const PassOut p = runPass(cfg, opt.seed, io);
        if (pass == 0)
            first = p;
        else if (p.digest != first.digest)
            r.fail("simulated digest of pass " + std::to_string(pass) +
                   (traced ? " (traced)" : "") +
                   " differs from pass 0");
        if (p.mismatches != 0)
            r.fail(std::to_string(p.mismatches) +
                   " payload-oracle mismatches");
        r.attempted += kWarmupMisses + kTimedMisses;
        r.failed += p.failed;
        const double rate = static_cast<double>(kTimedMisses) / p.timedS;
        (traced ? rateTraced : rateUntraced).push_back(rate);
        if (!traced) {
            p50s.push_back(opUs.percentile(0.50));
            p99s.push_back(opUs.percentile(0.99));
        }
        setupS.push_back(p.traceGenS + p.constructS);
        traceGenS.push_back(p.traceGenS);
        constructS.push_back(p.constructS);
    }
    if (r.failed != 0)
        r.fail(std::to_string(r.failed) + " failed accesses");

    const double misses =
        static_cast<double>(kWarmupMisses + kTimedMisses);
    std::map<std::string, double> v;
    if (!opt.trace) {
        v["ops_per_s"] = highest(rateUntraced);
        v["op_us_p50"] = lowest(p50s);
        // One pass's p99 rests on a few dozen calls, so its
        // minimum over passes would pick noise; its median does not.
        v["op_us_p99"] = median(p99s);
        v["setup_s"] = lowest(setupS);
        v["peak_rss_mb"] = peakRssMb();
        v["sim_cycles_per_op"] =
            static_cast<double>(first.execTime) / misses;
        // Batch analogues of the service metrics: the controller's
        // back-to-back capacity, the p99 simulated forward latency of
        // a miss, and the fraction of misses served correctly.
        v["svc_capacity_req_per_mcycle"] =
            1e6 * misses / static_cast<double>(first.busy);
        v["svc_p99_cycles"] = static_cast<double>(first.simLatencyP99);
        v["svc_goodput"] =
            1.0 - static_cast<double>(first.failed) / misses;
    } else {
        agg.spans = tracer.totals();
        layerValues(agg, v);
        v["crypto.encrypt_ns_per_slot"] = iso.encryptNsPerSlot;
        v["crypto.verify_decrypt_ns_per_slot"] =
            iso.verifyDecryptNsPerSlot;
        v["mem.path_batch_us"] = iso.pathBatchUs;
        v["oram.construct_s"] = lowest(constructS);
        v["workload.trace_gen_s"] = lowest(traceGenS);
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

    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "digest %016llx passes %zu failed_frac %.6g",
                  static_cast<unsigned long long>(first.digest),
                  setupS.size(),
                  static_cast<double>(r.failed) /
                      static_cast<double>(r.attempted));
    r.notes.push_back(buf);
    if (opt.trace && !opt.spansOut.empty() &&
        !writeSpans(opt.spansOut, opt.workload, tracer.retained()))
        r.notes.push_back("warning: cannot write " + opt.spansOut);
    return r;
}

} // namespace perfbench
