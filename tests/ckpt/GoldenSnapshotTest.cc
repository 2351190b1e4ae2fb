/**
 * @file
 * Snapshot wire-format goldens.
 *
 * Fixed runs are interrupted mid-flight, and the FNV-1a digest of
 * every section of the resulting snapshot is compared against a
 * committed table.  The table pins the byte format of every
 * serialized type at kSnapshotVersion 5: a serde change that moves a
 * single byte fails here even when it round-trips with itself.
 *
 * Each run also proves that serialization is a fixed point: every
 * component reloaded from the snapshot re-serializes to the same
 * bytes, and a run resumed from the snapshot and interrupted again
 * writes the same sections as a run interrupted there directly.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "cpu/CpuModel.hh"
#include "mem/DramModel.hh"
#include "obs/FlightRecorder.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"
#include "obs/Observer.hh"
#include "obs/RequestTrace.hh"
#include "obs/Slo.hh"
#include "oram/TinyOram.hh"
#include "shadow/ShadowPolicy.hh"
#include "sim/System.hh"
#include "svc/Service.hh"
#include "workload/Arrivals.hh"

using namespace sboram;

namespace {

constexpr std::uint64_t kMisses = 1500;
constexpr std::uint64_t kSeed = 99;
constexpr std::uint64_t kStopAt = 450;
constexpr std::uint64_t kResumeStopAt = 700;

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sbckpt-golden-XXXXXX";
        const char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        _path = d;
    }

    ~TempDir()
    {
        if (DIR *d = opendir(_path.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((_path + "/" + name).c_str());
            }
            closedir(d);
        }
        ::rmdir(_path.c_str());
    }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

using Bytes = std::vector<std::uint8_t>;
/** Section id -> raw section bytes. */
using Sections = std::map<std::uint32_t, Bytes>;

constexpr std::uint32_t kAllSections[] = {
    ckpt::kSectionCpu,     ckpt::kSectionPort,    ckpt::kSectionOram,
    ckpt::kSectionPolicy,  ckpt::kSectionDram,    ckpt::kSectionMetrics,
    ckpt::kSectionMem,     ckpt::kSectionObs,     ckpt::kSectionSvc,
    ckpt::kSectionReqObs,
};

Bytes
bytesOf(ckpt::Deserializer d)
{
    Bytes b(d.remaining());
    d.bytes(b.data(), b.size());
    return b;
}

Sections
sectionsOf(const ckpt::SnapshotReader &r)
{
    Sections out;
    for (std::uint32_t id : kAllSections)
        if (r.hasSection(id))
            out[id] = bytesOf(r.section(id));
    return out;
}

std::uint64_t
digest(const Bytes &b)
{
    return ckpt::fnv1a(b.data(), b.size());
}

std::unique_ptr<ckpt::SnapshotReader>
latest(const std::string &dir, std::uint64_t key)
{
    ckpt::CheckpointSession session(dir, key);
    return session.loadLatest();
}

/**
 * Compare each section's digest with the committed table.  A
 * mismatch prints the table row the current code would need, which
 * is how the table was produced in the first place.
 */
void
expectDigests(const char *run, const Sections &sections,
              const std::map<std::uint32_t, std::uint64_t> &golden)
{
    std::map<std::uint32_t, std::uint64_t> actual;
    for (const auto &[id, bytes] : sections)
        actual[id] = digest(bytes);
    if (actual == golden)
        return;
    std::string rows;
    for (const auto &[id, d] : actual) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "{%u, 0x%016" PRIx64 "ULL}, ",
                      id, d);
        rows += buf;
    }
    ADD_FAILURE() << run << ": section digests differ; current code "
                  << "writes " << rows;
}

/** Reload @p obj from @p bytes and demand byte-equal re-serialization. */
template <class T>
void
expectFixedPoint(const char *what, T &obj, const Bytes &bytes)
{
    ckpt::Deserializer in(bytes.data(), bytes.size());
    obj.loadState(in);
    EXPECT_TRUE(in.atEnd()) << what << " left bytes unread";
    ckpt::Serializer out;
    obj.saveState(out);
    EXPECT_EQ(out.buffer(), bytes) << what << " re-serialized differently";
}

SystemConfig
smallSystem(Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 14;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.onChipPosMapEntries = 1 << 10;
    cfg.oram.seed = 3;
    return cfg;
}

/** Shadow run under a fault campaign heavy enough to quarantine slots
 *  and latch tier-2 degraded mode, with the spare store populated. */
SystemConfig
ladderSystem()
{
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.shadow.mode = ShadowMode::HdOnly;
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.02;
    cfg.oram.fault.seed = 23;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    cfg.oram.health.quarantineThreshold = 1;
    cfg.oram.health.stashHighWatermark = 3;
    cfg.oram.health.stashLowWatermark = 1;
    return cfg;
}

struct GoldenRun
{
    const char *name;
    SystemConfig cfg;
    /** ckpt::SectionId value -> fnv1a of the section bytes. */
    std::map<std::uint32_t, std::uint64_t> digests;
};

std::vector<GoldenRun>
systemRuns()
{
    std::vector<GoldenRun> runs;
    {
        // Metrics on: the obs section carries the registry, sampler
        // rows and the request-latency histogram.
        SystemConfig cfg = smallSystem(Scheme::Tiny);
        cfg.obs.metrics = true;
        cfg.obs.interval = 100;
        cfg.obs.label = "golden-tiny";
        runs.push_back({"tiny", cfg, {
            {1, 0xdcf9a866b94212d6ULL}, {2, 0xcb40bae3d241bf32ULL},
            {3, 0x4dfbf5518db010ebULL}, {5, 0x239a8fb3b30150efULL},
            {6, 0x81d23fd7003c2305ULL}, {8, 0x8090d2556ccddf8dULL},
            {10, 0x072b03c2eb8b84e5ULL}
        }});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::RdOnly;
        runs.push_back({"shadow-rd", cfg, {
            {1, 0x021b68b86c644046ULL}, {2, 0x6852fe74d0b2f52cULL},
            {3, 0x632813244c63a53fULL}, {4, 0x609b47cb102cc52cULL},
            {5, 0x221296b1b6c26e43ULL}, {6, 0x81d23fd7003c2305ULL},
            {10, 0x072b03c2eb8b84e5ULL}
        }});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::HdOnly;
        runs.push_back({"shadow-hd", cfg, {
            {1, 0x11568fed9e130596ULL}, {2, 0x7e688dbace596b19ULL},
            {3, 0x6a4a0481b4bfbe43ULL}, {4, 0x07cc7f163567bfdeULL},
            {5, 0xf68c7b62389fbc74ULL}, {6, 0x81d23fd7003c2305ULL},
            {10, 0x072b03c2eb8b84e5ULL}
        }});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::DynamicPartition;
        cfg.timingProtection = true;
        cfg.recordPerMiss = true;
        runs.push_back({"dynamic", cfg, {
            {1, 0x96da49566a0ac0e6ULL}, {2, 0x335acee460d1604dULL},
            {3, 0x20be505ff4737291ULL}, {4, 0x6d38d4f639fa08eaULL},
            {5, 0x301aa27769d04dccULL}, {6, 0x44c40cd8e5234337ULL},
            {10, 0x072b03c2eb8b84e5ULL}
        }});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Insecure);
        cfg.cpu = CpuKind::OutOfOrder;
        cfg.cores = 2;
        cfg.window = 4;
        runs.push_back({"insecure", cfg, {
            {1, 0xc0445613d0bb8e17ULL}, {5, 0xbe43ef30c2d50a45ULL},
            {6, 0x81d23fd7003c2305ULL}, {7, 0xca378e44e68a4078ULL}
        }});
    }
    runs.push_back({"ladder", ladderSystem(), {
        {1, 0xa70273837e7a5492ULL}, {2, 0x1fd6ec1f84420740ULL},
        {3, 0xb9b5585376cb3ecbULL}, {4, 0x7162c71e3799f9fcULL},
        {5, 0x15cd0ed64ef773d1ULL}, {6, 0x81d23fd7003c2305ULL},
        {10, 0xe361045eb8b95825ULL}
    }});
    return runs;
}

/** Interrupt @p cfg after @p stopAt accesses; return the snapshot. */
Sections
snapshotAt(const SystemConfig &cfg,
           const std::vector<LlcMissRecord> &trace, std::uint64_t stopAt)
{
    TempDir dir;
    SystemConfig run = cfg;
    run.obs.dir = dir.path();
    run.interruptAfterAccesses = stopAt;
    const std::uint64_t key = configFingerprint(cfg);
    {
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(runSystem(run, trace, &session), InterruptedError);
    }
    auto reader = latest(dir.path(), key);
    EXPECT_NE(reader, nullptr);
    return reader ? sectionsOf(*reader) : Sections{};
}

/** Interrupt at kStopAt, resume, interrupt again at kResumeStopAt. */
Sections
resumedSnapshot(const SystemConfig &cfg,
                const std::vector<LlcMissRecord> &trace)
{
    TempDir dir;
    SystemConfig run = cfg;
    run.obs.dir = dir.path();
    const std::uint64_t key = configFingerprint(cfg);
    for (std::uint64_t stopAt : {kStopAt, kResumeStopAt}) {
        run.interruptAfterAccesses = stopAt;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(runSystem(run, trace, &session), InterruptedError);
    }
    auto reader = latest(dir.path(), key);
    EXPECT_NE(reader, nullptr);
    return reader ? sectionsOf(*reader) : Sections{};
}

/** Reload every System-owned component from @p s and re-serialize. */
void
expectSystemFixedPoints(const SystemConfig &cfg, const Sections &s)
{
    CpuCursor cursor;
    expectFixedPoint("CpuCursor", cursor, s.at(ckpt::kSectionCpu));

    DramModel dram(cfg.dramTiming, cfg.dramGeometry);
    expectFixedPoint("DramModel", dram, s.at(ckpt::kSectionDram));

    if (cfg.scheme == Scheme::Insecure)
        return;

    std::unique_ptr<DuplicationPolicy> policy;
    ShadowPolicy *shadow = nullptr;
    if (cfg.scheme == Scheme::Shadow) {
        auto sp = std::make_unique<ShadowPolicy>(
            cfg.shadow, cfg.oram.deriveLevels());
        shadow = sp.get();
        policy = std::move(sp);
    }
    DramModel oramDram(cfg.dramTiming, cfg.dramGeometry);
    TinyOram oram(cfg.oram, oramDram, std::move(policy));
    if (shadow != nullptr)
        expectFixedPoint("ShadowPolicy", *shadow,
                         s.at(ckpt::kSectionPolicy));
    expectFixedPoint("TinyOram", oram, s.at(ckpt::kSectionOram));

    obs::FlightRecorder flight;
    expectFixedPoint("FlightRecorder", flight,
                     s.at(ckpt::kSectionReqObs));

    if (!cfg.obs.metrics)
        return;
    // The restored run's own wiring registers the counters before the
    // registry loads into them (gauges do not travel).
    obs::RunObserver observer(cfg.obs);
    observer.registry().counter(obs::kMetricCheckpoints);
    observer.sealRegistry();
    expectFixedPoint("RunObserver", observer, s.at(ckpt::kSectionObs));

    // A metrics-off run consumes the sampler body into scratch and
    // re-serializes only the registry and the absent-sampler flag.
    obs::ObsConfig off = cfg.obs;
    off.metrics = false;
    obs::RunObserver quiet(off);
    const Bytes &obsBytes = s.at(ckpt::kSectionObs);
    ckpt::Deserializer in(obsBytes.data(), obsBytes.size());
    quiet.loadState(in);
    EXPECT_TRUE(in.atEnd());
}

/** Overloaded bursty service point with faults and a tight SLO. */
svc::ServiceConfig
serviceConfig()
{
    svc::ServiceConfig cfg;
    cfg.oram.dataBlocks = 1 << 10;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.oram.seed = 7;
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.05;
    cfg.oram.fault.seed = 97;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    cfg.shadow.mode = ShadowMode::DynamicPartition;
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.clients = 1000;
    cfg.arrivals.addressBlocks = 256;
    cfg.arrivals.meanGapCycles = 400.0;
    cfg.arrivals.burstFactor = 6.0;
    cfg.arrivals.burstOnCycles = 60'000;
    cfg.arrivals.burstOffCycles = 120'000;
    cfg.arrivals.seed = 21;
    cfg.requests = 600;
    cfg.queueCapacity = 32;
    cfg.queueHighWatermark = 24;
    cfg.queueLowWatermark = 8;
    cfg.deadline = 30'000;
    cfg.maxRetries = 1;
    cfg.slo.latencyBound = 20'000;
    cfg.slo.windowRequests = 64;
    return cfg;
}

constexpr std::uint64_t kSvcStopAt = 250;
constexpr std::uint64_t kSvcResumeStopAt = 400;

Sections
serviceSnapshot(const svc::ServiceConfig &cfg,
                std::initializer_list<std::uint64_t> stops)
{
    TempDir dir;
    const std::uint64_t key = svc::serviceConfigFingerprint(cfg);
    for (std::uint64_t stopAt : stops) {
        svc::ServiceConfig run = cfg;
        run.interruptAfterResolved = stopAt;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(svc::runService(run, &session), InterruptedError);
    }
    auto reader = latest(dir.path(), key);
    EXPECT_NE(reader, nullptr);
    return reader ? sectionsOf(*reader) : Sections{};
}

class CkptGolden : public ::testing::Test
{
  protected:
    void SetUp() override { ckpt::clearStopForTesting(); }
    void TearDown() override { ckpt::clearStopForTesting(); }
};

} // namespace

TEST_F(CkptGolden, SystemSnapshotsMatchCommittedDigests)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    for (const GoldenRun &run : systemRuns()) {
        SCOPED_TRACE(run.name);
        expectDigests(run.name, snapshotAt(run.cfg, trace, kStopAt),
                      run.digests);
    }
}

TEST_F(CkptGolden, LadderRunReachesQuarantineAndDegradedMode)
{
    // The same accesses the golden snapshot covers, run to
    // completion: the tier-1 and tier-2 state must be populated at
    // the snapshot point or the digest proves nothing about it.
    auto trace = makeTrace("mcf", kMisses, kSeed);
    trace.resize(kStopAt);
    const RunMetrics m = runSystem(ladderSystem(), trace);
    EXPECT_GT(m.slotsQuarantined, 0u);
    EXPECT_GT(m.quarantineEvacuations, 0u);
    EXPECT_GT(m.degradedEntries, 0u);
    EXPECT_GT(m.faultsInjected, 0u);
}

TEST_F(CkptGolden, SystemComponentsReserializeToSameBytes)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    for (const GoldenRun &run : systemRuns()) {
        SCOPED_TRACE(run.name);
        expectSystemFixedPoints(run.cfg,
                                snapshotAt(run.cfg, trace, kStopAt));
    }
}

TEST_F(CkptGolden, ResumedSystemSnapshotEqualsDirectSnapshot)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    for (const GoldenRun &run : systemRuns()) {
        SCOPED_TRACE(run.name);
        const Sections direct = snapshotAt(run.cfg, trace, kResumeStopAt);
        const Sections resumed = resumedSnapshot(run.cfg, trace);
        ASSERT_EQ(direct.size(), resumed.size());
        for (const auto &[id, bytes] : direct)
            EXPECT_EQ(resumed.at(id), bytes) << "section " << id;
    }
}

TEST_F(CkptGolden, ServiceSnapshotMatchesCommittedDigests)
{
    const svc::ServiceConfig cfg = serviceConfig();
    const Sections s = serviceSnapshot(cfg, {kSvcStopAt});
    expectDigests("service", s, {
        {3, 0x7701f7f57bab935dULL}, {4, 0x0e9e353363e86673ULL},
        {5, 0x9519fb6159b415a3ULL}, {9, 0x830b16483530a345ULL},
        {10, 0xa30765e81a3f0e4dULL}
    });

    // The snapshot must hold a non-empty queue with the pressure latch
    // on and completions behind it (so exemplars are kept).  The svc
    // section leads with the generator cursor (six u64), the
    // lookahead record, the scheduler cursor and the latch.
    const Bytes &svcBytes = s.at(ckpt::kSectionSvc);
    ckpt::Deserializer d(svcBytes.data(), svcBytes.size());
    d.skip(6 * 8);                  // ArrivalGenerator.
    d.skip(1 + 3 * 8 + 1);          // pending record.
    d.skip(4 * 8);                  // pulled, now, nextSeq, resolved.
    EXPECT_EQ(d.u8(), 1u) << "pressure latch";
    const std::uint64_t depth = d.u64();
    EXPECT_GT(depth, 0u) << "queue depth";
    d.skip(depth * (6 * 8 + 1 + 4)); // queued requests.
    d.skip(2 * 8);                  // arrivals, admitted.
    EXPECT_GT(d.u64(), 0u) << "completions";
}

TEST_F(CkptGolden, ServiceComponentsReserializeToSameBytes)
{
    const svc::ServiceConfig cfg = serviceConfig();
    const Sections s = serviceSnapshot(cfg, {kSvcStopAt});

    // kSectionSvc leads with the arrival generator.
    const Bytes &svcBytes = s.at(ckpt::kSectionSvc);
    {
        ArrivalGenerator gen(cfg.arrivals);
        ckpt::Deserializer in(svcBytes.data(), svcBytes.size());
        gen.loadState(in);
        ckpt::Serializer out;
        gen.saveState(out);
        const Bytes prefix(svcBytes.begin(),
                           svcBytes.begin() +
                               static_cast<std::ptrdiff_t>(
                                   out.buffer().size()));
        EXPECT_EQ(out.buffer(), prefix);
    }

    // kSectionReqObs: timeline records, then the accumulator, the
    // exemplar reservoir, the SLO monitor and the flight recorder.
    const Bytes &req = s.at(ckpt::kSectionReqObs);
    ckpt::Deserializer in(req.data(), req.size());
    ckpt::Serializer out;
    const std::uint64_t records = in.u64();
    EXPECT_GT(records, 0u);
    out.u64(records);
    for (std::uint64_t i = 0; i < records; ++i) {
        obs::TimelineRecord rec;
        rec.loadState(in);
        rec.saveState(out);
    }
    obs::StageAccumulator acc;
    acc.loadState(in);
    acc.saveState(out);
    obs::ExemplarReservoir exemplars(PrfKey{1, 2}, 4,
                                     obs::kDefaultLog2Bins);
    exemplars.loadState(in);
    EXPECT_GT(exemplars.size(), 0u);
    exemplars.saveState(out);
    obs::SloMonitor slo(cfg.slo);
    slo.loadState(in);
    slo.saveState(out);
    obs::FlightRecorder flight;
    flight.loadState(in);
    EXPECT_GT(flight.total(), 0u);
    flight.saveState(out);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(out.buffer(), req);
}

TEST_F(CkptGolden, ResumedServiceSnapshotEqualsDirectSnapshot)
{
    const svc::ServiceConfig cfg = serviceConfig();
    const Sections direct = serviceSnapshot(cfg, {kSvcResumeStopAt});
    const Sections resumed =
        serviceSnapshot(cfg, {kSvcStopAt, kSvcResumeStopAt});
    ASSERT_EQ(direct.size(), resumed.size());
    for (const auto &[id, bytes] : direct)
        EXPECT_EQ(resumed.at(id), bytes) << "section " << id;
}

TEST_F(CkptGolden, RunMetricsReserializeToSameBytes)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = ladderSystem();
    cfg.recordPerMiss = true;
    const RunMetrics m = runSystem(cfg, trace);
    ckpt::Serializer first;
    saveRunMetrics(first, m);
    ckpt::Deserializer in(first.buffer().data(), first.buffer().size());
    const RunMetrics back = loadRunMetrics(in);
    EXPECT_TRUE(in.atEnd());
    ckpt::Serializer second;
    saveRunMetrics(second, back);
    EXPECT_EQ(first.buffer(), second.buffer());
    EXPECT_EQ(digest(first.buffer()), 0xccfbd89d10174531ULL);
}

TEST(CkptGoldenObs, RegistryAndSamplerReserializeToSameBytes)
{
    // MetricRegistry loads by name into already-registered metrics,
    // so the reloading side registers the same set first.
    auto wire = [](obs::MetricRegistry &reg) {
        reg.counter("a");
        reg.counter("b");
        reg.histogram("lin", 8, 2.5);
        reg.histogramLog2("log", 32);
    };
    obs::MetricRegistry reg;
    wire(reg);
    reg.counter("a").add(3);
    reg.counter("b").add(11);
    for (double v : {0.0, 1.0, 7.5, 19.0, 1e6})
        reg.histogram("lin", 8, 2.5).sample(v);
    for (double v : {3.0, 100.0, 4096.0, 1e9})
        reg.histogramLog2("log", 32).sample(v);
    obs::IntervalSampler sampler(reg, 2);
    sampler.takeSample(1, 10);
    sampler.takeSample(3, 30);

    ckpt::Serializer out;
    reg.saveState(out);
    sampler.saveState(out);
    EXPECT_EQ(digest(out.buffer()), 0x2eb2f56fc746f794ULL);

    obs::MetricRegistry reg2;
    wire(reg2);
    obs::IntervalSampler sampler2(reg2, 2);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    reg2.loadState(in);
    sampler2.loadState(in);
    EXPECT_TRUE(in.atEnd());
    ckpt::Serializer again;
    reg2.saveState(again);
    sampler2.saveState(again);
    EXPECT_EQ(again.buffer(), out.buffer());
}
