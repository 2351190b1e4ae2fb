#include <cstdio>
#include <cstdlib>
#include <set>

#include "Workloads.hh"
#include "ckpt/Serde.hh"
#include "crypto/Otp.hh"
#include "mem/AddressMap.hh"

namespace perfbench {

using namespace sboram;

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> kList = {
        {"ops_per_s", "1/s"},
        {"op_us_p50", "us"},
        {"op_us_p99", "us"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"sim_cycles_per_op", "cycles"},
        {"svc_capacity_req_per_mcycle", "1/Mcycle"},
        {"svc_p99_cycles", "cycles"},
        {"svc_goodput", "ratio"},
    };
    return kList;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> kList = {
        {"oram.probe_posmap_us", "us"},
        {"oram.path_read_us", "us"},
        {"oram.evict_read_us", "us"},
        {"oram.write_prepare_us", "us"},
        {"oram.write_fill_us", "us"},
        {"oram.write_finish_us", "us"},
        {"oram.glue_us", "us"},
        {"oram.path_reads_per_op", "count"},
        {"oram.posmap_accesses_per_op", "count"},
        {"oram.stash_hit_rate", "ratio"},
        {"oram.plb_hit_rate", "ratio"},
        {"oram.stash_shadows_mean", "count"},
        {"oram.stash_real_peak", "count"},
        {"oram.construct_s", "s"},
        {"shadow.self_us", "us"},
        {"shadow.victim_scans_per_op", "count"},
        {"shadow.candidates_per_write", "count"},
        {"shadow.select_calls_per_write", "count"},
        {"shadow.select_hit_ratio", "ratio"},
        {"shadow.useful_ratio", "ratio"},
        {"shadow.hot_cache_hit_rate", "ratio"},
        {"crypto.slots_encrypted_per_op", "count"},
        {"crypto.encrypt_ns_per_slot", "ns"},
        {"crypto.verify_decrypt_ns_per_slot", "ns"},
        {"mem.write_us", "us"},
        {"mem.path_batch_us", "us"},
        {"mem.reads_per_op", "count"},
        {"mem.writes_per_op", "count"},
        {"mem.row_hit_ratio", "ratio"},
        {"svc.self_us_per_req", "us"},
        {"svc.oram_replay_us_per_access", "us"},
        {"svc.queue_wait_p99_cycles", "cycles"},
        {"svc.path_access_p99_cycles", "cycles"},
        {"svc.issued_per_resolved", "ratio"},
        {"svc.dedup_join_ratio", "ratio"},
        {"svc.shed_frac", "ratio"},
        {"svc.max_queue_depth", "count"},
        {"svc.backpressure_entries", "count"},
        {"workload.trace_gen_s", "s"},
        {"trace.untraced_ops_per_s", "1/s"},
        {"trace.traced_ops_per_s", "1/s"},
        {"trace.overhead_frac", "ratio"},
        {"trace.op_us_mean", "us"},
        {"trace.span_balance_violations", "count"},
    };
    return kList;
}

void
emitMetrics(RunResult &r, const std::map<std::string, double> &values,
            bool trace)
{
    const std::vector<MetricSpec> &list =
        trace ? perLayerMetrics() : endToEndMetrics();
    std::set<std::string> known;
    for (const MetricSpec &m : list) {
        known.insert(m.name);
        const auto it = values.find(m.name);
        if (it == values.end() && !trace)
            r.fail(std::string("end-to-end metric missing: ") + m.name);
        r.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
    for (const auto &[name, value] : values) {
        (void)value;
        if (!known.count(name)) {
            std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                         name.c_str());
            std::abort();
        }
    }
}

std::uint64_t
noncesIssued(const TinyOram &oram)
{
    ckpt::Serializer s;
    oram.saveState(s);
    ckpt::Deserializer d(s.buffer().data(), s.buffer().size());
    for (int i = 0; i < 4; ++i)
        d.u64();  // freeAt, lastEvictionDone, access/eviction counters.
    return d.u64();
}

CounterSnap
snapCounters(const TinyOram &oram, DramModel &dram,
             const ProbePolicy *probe, const HotAddressCache *hot)
{
    CounterSnap s;
    s.oram = oram.stats();
    s.dram = dram.stats();
    s.plbHits = oram.plb().hits();
    s.plbMisses = oram.plb().misses();
    if (hot != nullptr) {
        s.hotHits = hot->hits();
        s.hotMisses = hot->misses();
    }
    if (probe != nullptr)
        s.hooks = probe->counts();
    s.nonces = noncesIssued(oram);
    return s;
}

void
LayerAgg::addDelta(const CounterSnap &a, const CounterSnap &b)
{
    OramStats &o = delta.oram;
    o.requests += b.oram.requests - a.oram.requests;
    o.stashHits += b.oram.stashHits - a.oram.stashHits;
    o.shadowStashHits += b.oram.shadowStashHits - a.oram.shadowStashHits;
    o.shadowForwards += b.oram.shadowForwards - a.oram.shadowForwards;
    o.pathReads += b.oram.pathReads - a.oram.pathReads;
    o.pathWrites += b.oram.pathWrites - a.oram.pathWrites;
    o.posMapAccesses += b.oram.posMapAccesses - a.oram.posMapAccesses;
    o.shadowsWritten += b.oram.shadowsWritten - a.oram.shadowsWritten;
    DramStats &d = delta.dram;
    d.reads += b.dram.reads - a.dram.reads;
    d.writes += b.dram.writes - a.dram.writes;
    d.rowHits += b.dram.rowHits - a.dram.rowHits;
    d.rowMisses += b.dram.rowMisses - a.dram.rowMisses;
    delta.plbHits += b.plbHits - a.plbHits;
    delta.plbMisses += b.plbMisses - a.plbMisses;
    delta.hotHits += b.hotHits - a.hotHits;
    delta.hotMisses += b.hotMisses - a.hotMisses;
    HookCounts &h = delta.hooks;
    h.llcMisses += b.hooks.llcMisses - a.hooks.llcMisses;
    h.beginWrites += b.hooks.beginWrites - a.hooks.beginWrites;
    h.placed += b.hooks.placed - a.hooks.placed;
    h.offers += b.hooks.offers - a.hooks.offers;
    h.selectCalls += b.hooks.selectCalls - a.hooks.selectCalls;
    h.selectHits += b.hooks.selectHits - a.hooks.selectHits;
    h.endWrites += b.hooks.endWrites - a.hooks.endWrites;
    h.hotness += b.hooks.hotness - a.hooks.hotness;
    delta.nonces += b.nonces - a.nonces;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
layerValues(const LayerAgg &agg, std::map<std::string, double> &v)
{
    const double ops = static_cast<double>(agg.ops);
    auto us = [&](SpanKind k) {
        return ratio(static_cast<double>(
                         agg.spans.selfNs[static_cast<std::size_t>(k)]),
                     ops) /
               1000.0;
    };
    v["oram.probe_posmap_us"] = us(SpanKind::ProbePosmap);
    v["oram.path_read_us"] = us(SpanKind::PathRead);
    v["oram.evict_read_us"] = us(SpanKind::EvictRead);
    v["oram.write_prepare_us"] = us(SpanKind::WritePrepare);
    v["oram.write_fill_us"] = us(SpanKind::WriteFill);
    v["oram.write_finish_us"] = us(SpanKind::WriteFinish);
    v["oram.glue_us"] = us(SpanKind::Access);
    v["mem.write_us"] = us(SpanKind::MemWrite);
    double totalNs = 0.0;
    for (std::int64_t ns : agg.spans.selfNs)
        totalNs += static_cast<double>(ns);
    v["trace.op_us_mean"] = ratio(totalNs, ops) / 1000.0;
    v["trace.span_balance_violations"] =
        static_cast<double>(agg.spans.balanceViolations);

    const OramStats &o = agg.delta.oram;
    const HookCounts &h = agg.delta.hooks;
    const double writes = static_cast<double>(h.beginWrites);
    v["oram.path_reads_per_op"] =
        ratio(static_cast<double>(o.pathReads), ops);
    v["oram.posmap_accesses_per_op"] =
        ratio(static_cast<double>(o.posMapAccesses), ops);
    v["oram.stash_hit_rate"] = ratio(static_cast<double>(o.stashHits),
                                     static_cast<double>(o.requests));
    v["oram.plb_hit_rate"] =
        ratio(static_cast<double>(agg.delta.plbHits),
              static_cast<double>(agg.delta.plbHits +
                                  agg.delta.plbMisses));
    v["oram.stash_shadows_mean"] = ratio(agg.stashShadowSum, ops);
    v["oram.stash_real_peak"] = static_cast<double>(agg.stashRealPeak);

    v["shadow.self_us"] =
        ratio(static_cast<double>(agg.spans.selfNs[static_cast<
                  std::size_t>(SpanKind::Shadow)]),
              writes) /
        1000.0;
    v["shadow.victim_scans_per_op"] =
        ratio(static_cast<double>(h.hotness), ops);
    v["shadow.candidates_per_write"] =
        ratio(static_cast<double>(h.placed + h.offers), writes);
    v["shadow.select_calls_per_write"] =
        ratio(static_cast<double>(h.selectCalls), writes);
    v["shadow.select_hit_ratio"] =
        ratio(static_cast<double>(h.selectHits),
              static_cast<double>(h.selectCalls));
    v["shadow.useful_ratio"] =
        ratio(static_cast<double>(o.shadowForwards + o.shadowStashHits),
              static_cast<double>(o.shadowsWritten));
    v["shadow.hot_cache_hit_rate"] =
        ratio(static_cast<double>(agg.delta.hotHits),
              static_cast<double>(agg.delta.hotHits +
                                  agg.delta.hotMisses));

    v["crypto.slots_encrypted_per_op"] =
        ratio(static_cast<double>(agg.delta.nonces), ops);

    const DramStats &d = agg.delta.dram;
    v["mem.reads_per_op"] = ratio(static_cast<double>(d.reads), ops);
    v["mem.writes_per_op"] = ratio(static_cast<double>(d.writes), ops);
    v["mem.row_hit_ratio"] =
        ratio(static_cast<double>(d.rowHits),
              static_cast<double>(d.rowHits + d.rowMisses));
}

namespace {

/** Slots on one path of @p oram's tree. */
std::size_t
pathSlots(const TinyOram &oram)
{
    return (oram.geometry().leafLevel + 1) *
           static_cast<std::size_t>(oram.config().slotsPerBucket);
}

constexpr int kIsolatedReps = 2000;

} // namespace

void
timeCrypto(const TinyOram &oram, IsolatedTimings &out)
{
    const std::size_t n = pathSlots(oram);
    const std::uint64_t words = oram.config().blockBytes / 8;
    OtpCodec codec(PrfKey{0x70657266ULL, 0x62656e6368ULL});
    std::vector<std::vector<std::uint64_t>> plains(
        n, std::vector<std::uint64_t>(words));
    for (std::size_t i = 0; i < n; ++i)
        for (std::uint64_t w = 0; w < words; ++w)
            plains[i][w] = prf64(PrfKey{}, i, w);
    std::vector<CipherText> cts(n);
    std::vector<const std::uint64_t *> plainPtrs(n);
    std::vector<CipherRef> refs(n);
    for (std::size_t i = 0; i < n; ++i) {
        cts[i].lanes.resize(words);
        plainPtrs[i] = plains[i].data();
        refs[i] = CipherRef(cts[i]);
    }
    std::vector<std::uint64_t> ks(n * words);
    std::vector<std::uint64_t> plain;

    std::vector<double> enc;
    std::vector<double> dec;
    enc.reserve(kIsolatedReps);
    dec.reserve(kIsolatedReps);
    for (int rep = 0; rep < kIsolatedReps; ++rep) {
        const std::int64_t t0 = nowNs();
        codec.encryptBatch(plainPtrs.data(), refs.data(), n, words,
                           ks.data());
        const std::int64_t t1 = nowNs();
        for (std::size_t i = 0; i < n; ++i) {
            if (!codec.verifyDecrypt(cts[i], plain) ||
                plain[0] != plains[i][0])
                out.verified = false;
        }
        const std::int64_t t2 = nowNs();
        enc.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(n));
        dec.push_back(static_cast<double>(t2 - t1) /
                      static_cast<double>(n));
    }
    out.encryptNsPerSlot = median(enc);
    out.verifyDecryptNsPerSlot = median(dec);
}

void
timePathBatch(const TinyOram &oram, const DramModel &dram,
              IsolatedTimings &out)
{
    const unsigned levels = oram.geometry().leafLevel + 1;
    const unsigned z = oram.config().slotsPerBucket;
    DramModel probe(dram.timing(), dram.geometry());
    AddressMap amap(dram.geometry(), levels, z);
    std::vector<BucketIndex> buckets;
    std::vector<DramCoord> coords;
    std::vector<double> samples;
    samples.reserve(kIsolatedReps);
    Cycles start = 0;
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    for (int rep = 0; rep < kIsolatedReps; ++rep) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const LeafLabel leaf = (lcg >> 17) % oram.geometry().numLeaves;
        oram.tree().bucketsOnPath(leaf, buckets);
        coords.clear();
        for (unsigned level = oram.treetopLevels(); level < levels;
             ++level)
            for (unsigned s = 0; s < z; ++s)
                coords.push_back(amap.mapSlot(buckets[level], s));
        const std::int64_t t0 = nowNs();
        const BatchTiming t = probe.accessBatch(start, coords, false);
        const std::int64_t t1 = nowNs();
        start = t.finish;
        samples.push_back(static_cast<double>(t1 - t0) / 1000.0);
    }
    out.pathBatchUs = median(samples);
}

} // namespace perfbench
