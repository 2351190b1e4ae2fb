/**
 * @file
 * Self-checks of the benchmark's instrumentation:
 *
 *  1. ProbePolicy forwards every DuplicationPolicy hook, with its
 *     arguments and return value, whether or not it is timing.
 *  2. The Tracer turns a known boundary sequence into the expected
 *     spans, and those spans balance.
 *  3. The decorator and sink are transparent: a short TinyOram run
 *     with them attached matches one without, stat for stat and leaf
 *     for leaf.
 *  4. The batch workload replays the trace in sim/System's order: its
 *     simulated execution time equals runSystem's on the same trace.
 *
 * Exits 0 when every check passes; prints each failure.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "Probe.hh"
#include "Workloads.hh"
#include "shadow/ShadowPolicy.hh"
#include "sim/System.hh"

using namespace perfbench;
using namespace sboram;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

/** Records every call and returns values the test can recognise. */
class RecordingPolicy : public DuplicationPolicy
{
  public:
    std::string log;

    void beginPathWrite(LeafLabel leaf) override
    {
        log += "begin:" + std::to_string(leaf) + ";";
    }
    void onBlockPlaced(const PlacedBlock &p) override
    {
        log += "placed:" + std::to_string(p.addr) + "," +
               std::to_string(p.level) + ";";
    }
    void offerStashShadow(Addr addr, LeafLabel leaf, std::uint32_t version,
                          unsigned rearLevel, unsigned maxLevel) override
    {
        log += "offer:" + std::to_string(addr) + "," +
               std::to_string(leaf) + "," + std::to_string(version) +
               "," + std::to_string(rearLevel) + "," +
               std::to_string(maxLevel) + ";";
    }
    std::optional<ShadowChoice> selectShadow(unsigned level) override
    {
        log += "select:" + std::to_string(level) + ";";
        if (level % 2)
            return std::nullopt;
        ShadowChoice c;
        c.addr = 100 + level;
        c.leaf = 7;
        c.version = 3;
        c.releaseStashCopy = true;
        return c;
    }
    void endPathWrite() override { log += "end;"; }
    void onLlcMiss(Addr addr) override
    {
        log += "miss:" + std::to_string(addr) + ";";
    }
    void onRequestClassified(bool wasDummy) override
    {
        log += wasDummy ? "dummy;" : "real;";
    }
    unsigned partitionLevel() const override { return 11; }
    std::uint32_t hotnessOf(Addr addr) const override
    {
        return static_cast<std::uint32_t>(addr * 3);
    }
};

void
driveAllHooks(DuplicationPolicy &p)
{
    p.onLlcMiss(5);
    p.onRequestClassified(false);
    p.beginPathWrite(9);
    PlacedBlock placed;
    placed.addr = 4;
    placed.level = 6;
    p.onBlockPlaced(placed);
    p.offerStashShadow(1, 2, 3, 4, 5);
    const auto hit = p.selectShadow(2);
    check(hit && hit->addr == 102 && hit->leaf == 7 &&
              hit->version == 3 && hit->releaseStashCopy,
          "selectShadow return value forwarded");
    check(!p.selectShadow(3), "empty selectShadow forwarded");
    p.endPathWrite();
    p.onRequestClassified(true);
    check(p.partitionLevel() == 11, "partitionLevel forwarded");
    check(p.hotnessOf(7) == 21, "hotnessOf forwarded");
}

void
testForwarding()
{
    const std::string expected =
        "miss:5;real;begin:9;placed:4,6;offer:1,2,3,4,5;select:2;"
        "select:3;end;dummy;";
    for (bool timing : {false, true}) {
        Tracer tracer;
        auto rec = std::make_unique<RecordingPolicy>();
        RecordingPolicy *inner = rec.get();
        ProbePolicy probe(std::move(rec), &tracer);
        if (timing)
            tracer.beginOp(0);
        driveAllHooks(probe);
        if (timing)
            tracer.endOp();
        const std::string mode = timing ? " (timing)" : "";
        check(inner->log == expected,
              "every hook forwarded in order" + mode + ": " + inner->log);
        const HookCounts &c = probe.counts();
        check(c.llcMisses == 1 && c.beginWrites == 1 && c.placed == 1 &&
                  c.offers == 1 && c.selectCalls == 2 &&
                  c.selectHits == 1 && c.endWrites == 1 &&
                  c.classifiedReal == 1 && c.classifiedDummy == 1 &&
                  c.hotness == 1 && c.partitionLevel == 1,
              "every hook counted" + mode);
        check(tracer.totals().balanceViolations == 0,
              "spans balance" + mode);
    }
}

void
testSpanShape()
{
    Tracer tracer;
    using M = Tracer::Mark;
    tracer.beginOp(0);
    std::int64_t t = nowNs();
    tracer.mark(M::Entry, ++t);
    tracer.mark(M::ReadHook, ++t);     // posmap request read
    tracer.mark(M::Classified, ++t);
    tracer.policyTime(t, t + 1);
    t += 2;
    tracer.mark(M::ReadHook, ++t);     // data request read
    tracer.mark(M::Classified, ++t);
    tracer.mark(M::ReadHook, ++t);     // eviction read
    tracer.mark(M::WriteHook, ++t);
    tracer.policyTime(t, t + 1);       // beginPathWrite
    t += 2;
    tracer.mark(M::SelectEnter, ++t);
    tracer.policyTime(t, t + 1);
    tracer.mark(M::SelectExit, t + 1);
    t += 2;
    tracer.mark(M::SelectEnter, ++t);
    tracer.policyTime(t, t + 1);
    tracer.mark(M::SelectExit, t + 1);
    t += 2;
    tracer.mark(M::EndWrite, ++t);
    while (nowNs() <= t) {
        // endOp stamps the root's end with the clock.
    }
    tracer.endOp();

    const std::vector<Span> &s = tracer.retained();
    const std::vector<SpanKind> want = {
        SpanKind::Access,       SpanKind::ProbePosmap,
        SpanKind::PathRead,     SpanKind::Shadow,
        SpanKind::PathRead,     SpanKind::EvictRead,
        SpanKind::WritePrepare, SpanKind::WriteFill,
        SpanKind::WriteFinish,  SpanKind::MemWrite,
        SpanKind::Shadow,       SpanKind::Shadow,
    };
    bool same = s.size() == want.size();
    for (std::size_t i = 0; same && i < s.size(); ++i)
        same = s[i].kind == want[i];
    std::string got;
    for (const Span &sp : s)
        got += std::string(spanName(sp.kind)) + " ";
    check(same, "span sequence: " + got);
    check(tracer.totals().balanceViolations == 0,
          "synthetic spans balance");
    check(s.size() == want.size() && s[10].parent == 6 &&
              s[11].parent == 7,
          "policy time folds into its phase");
}

OramConfig
smallConfig()
{
    OramConfig cfg;
    cfg.dataBlocks = std::uint64_t(1) << 12;
    cfg.posMapMode = PosMapMode::Recursive;
    cfg.onChipPosMapEntries = 1 << 8;
    cfg.payloadEnabled = true;
    return cfg;
}

struct Outcome
{
    OramStats stats;
    std::uint64_t leafHash = 0;
    std::uint64_t leafEvents = 0;
    std::uint64_t placed = 0;
};

Outcome
shortRun(bool probed)
{
    const OramConfig cfg = smallConfig();
    ShadowConfig sc;
    sc.mode = ShadowMode::HdOnly;
    DramModel dram(DramTiming::ddr3_1333(), DramGeometry{});
    Tracer tracer;
    std::unique_ptr<DuplicationPolicy> policy =
        std::make_unique<ShadowPolicy>(sc, cfg.deriveLevels());
    ProbePolicy *probe = nullptr;
    if (probed) {
        auto p = std::make_unique<ProbePolicy>(std::move(policy), &tracer);
        probe = p.get();
        policy = std::move(p);
    }
    TinyOram oram(cfg, dram, std::move(policy));
    ProbeSink sink(probed ? &tracer : nullptr);
    oram.setTraceSink(&sink);
    const std::vector<LlcMissRecord> trace = makeTrace("mcf", 3000, 7);
    Cycles t = 0;
    std::uint32_t op = 0;
    for (const LlcMissRecord &rec : trace) {
        if (probed)
            tracer.beginOp(op++);
        t = oram.access(rec.addr % cfg.dataBlocks,
                        rec.isWrite ? Op::Write : Op::Read, t + 50)
                .completeAt;
        if (probed)
            tracer.endOp();
    }
    Outcome o;
    o.stats = oram.stats();
    o.leafHash = sink.hash();
    o.leafEvents = sink.events();
    if (probed) {
        check(tracer.totals().balanceViolations == 0,
              "traced TinyOram spans balance");
        check(probe->counts().hotness > 0,
              "stash victim scans reach the decorator");
        check(probe->counts().llcMisses == trace.size(),
              "one onLlcMiss per access");
        o.placed = probe->counts().placed;
        check(noncesIssued(oram) > 0, "nonce counter readable");
    }
    return o;
}

void
testTransparency()
{
    const Outcome a = shortRun(false);
    const Outcome b = shortRun(true);
    check(a.leafHash == b.leafHash && a.leafEvents == b.leafEvents,
          "decorator leaves the external trace unchanged");
    check(a.stats.pathReads == b.stats.pathReads &&
              a.stats.shadowsWritten == b.stats.shadowsWritten &&
              a.stats.shadowForwards == b.stats.shadowForwards &&
              a.stats.stashHits == b.stats.stashHits,
          "decorator leaves the controller statistics unchanged");
    check(b.placed > 0, "placements observed");
}

void
testSystemOrder()
{
    Options opt;
    opt.workload = "batch-rd";
    opt.seed = 3;
    opt.seconds = 0.001;
    const RunResult r = runBatch(opt);
    check(r.correct, "batch-rd short run is correct");
    double cyclesPerOp = 0.0;
    for (const Metric &m : r.metrics)
        if (m.name == "sim_cycles_per_op")
            cyclesPerOp = m.value;

    // The same point through the repository's own system runner.
    const std::uint64_t misses = kBatchWarmupMisses + kBatchTimedMisses;
    const RunMetrics m = runSystem(batchConfig(ShadowMode::RdOnly),
                                   makeTrace("mcf", misses, 3));
    const double expected =
        static_cast<double>(m.execTime) / static_cast<double>(misses);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "batch replay matches runSystem (%.6f vs %.6f)",
                  cyclesPerOp, expected);
    check(cyclesPerOp == expected, buf);
}

} // namespace

int
main()
{
    testForwarding();
    testSpanShape();
    testTransparency();
    testSystemOrder();
    std::printf("%s (%d failure%s)\n", failures ? "FAILED" : "ok",
                failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
}
