/**
 * @file
 * Snapshot layouts (ckpt/Snapshot.hh): every run loop names each of
 * its sections once, and a resume checks that every required one is
 * present before any loads.
 *
 * CkptLayout takes a real interrupted snapshot of each loop (Tiny,
 * Shadow and Insecure batch, and the service), re-frames it with a
 * valid MAC and the point's fingerprint once per section with that
 * section left out, and resumes through runSystem / runService.  Each
 * resume must throw CkptMismatchError, except without the optional
 * kSectionObs, which resumes to the uninterrupted result.
 *
 * CkptServiceForge forges well-framed service snapshots whose
 * request-observability state cannot be restored; each must throw
 * CkptMismatchError rather than abort the process.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include "../sim/RunMetricsUtil.hh"
#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "obs/RequestTrace.hh"
#include "sim/System.hh"
#include "svc/Service.hh"

using namespace sboram;
using sboram::test::expectSameMetrics;

namespace {

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sbckpt-layout-XXXXXX";
        const char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        _path = d;
    }

    ~TempDir()
    {
        for (const std::string &name : files())
            ::unlink((_path + "/" + name).c_str());
        ::rmdir(_path.c_str());
    }

    const std::string &path() const { return _path; }

    std::vector<std::string>
    files() const
    {
        std::vector<std::string> out;
        if (DIR *d = opendir(_path.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    out.push_back(name);
            }
            closedir(d);
        }
        return out;
    }

  private:
    std::string _path;
};

using Bytes = std::vector<std::uint8_t>;

/** One snapshot's sections in write order. */
struct Layout
{
    std::vector<std::uint32_t> order;
    std::map<std::uint32_t, Bytes> bytes;
};

/**
 * The one snapshot an interrupted run left in @p dir, read back in
 * the order @p order names.  Re-framing every listed section must
 * reproduce the file byte for byte, so @p order is exactly what the
 * loop wrote.
 */
Layout
readLayout(const TempDir &dir, std::uint64_t key,
           const std::vector<std::uint32_t> &order)
{
    const std::vector<std::string> files = dir.files();
    std::vector<std::string> snapshots;
    for (const std::string &name : files)
        if (name.rfind("pt-", 0) == 0)
            snapshots.push_back(name);
    EXPECT_EQ(snapshots.size(), 1u);
    Layout out;
    if (snapshots.size() != 1)
        return out;
    const Bytes image = ckpt::readFile(dir.path() + "/" + snapshots[0]);
    const ckpt::SnapshotReader reader(image);
    EXPECT_EQ(reader.fingerprint(), key);
    out.order = order;
    ckpt::SnapshotWriter again;
    for (std::uint32_t id : order) {
        ckpt::Deserializer d = reader.section(id);
        Bytes &b = out.bytes[id];
        b.resize(d.remaining());
        d.bytes(b.data(), b.size());
        again.section(id).bytes(b.data(), b.size());
    }
    EXPECT_EQ(again.finish(reader.seq(), key), image)
        << "the listed sections are not the snapshot's, in its order";
    return out;
}

/** The CkptMismatchError message of @p body, or "" if none was thrown. */
template <class Body>
std::string
mismatch(Body body)
{
    try {
        body();
    } catch (const CkptMismatchError &e) {
        return e.what();
    }
    return "";
}

/** The presence pass's message for a missing section @p id. */
std::string
lacks(std::uint32_t id)
{
    return "snapshot lacks section " + std::to_string(id);
}

/** Commit @p layout without @p drop (0 keeps all) into @p session. */
void
commitWithout(ckpt::CheckpointSession &session, const Layout &layout,
              std::uint32_t drop = 0)
{
    ckpt::SnapshotWriter writer;
    for (std::uint32_t id : layout.order) {
        if (id == drop)
            continue;
        const Bytes &b = layout.bytes.at(id);
        writer.section(id).bytes(b.data(), b.size());
    }
    session.commitSnapshot(writer);
}

SystemConfig
batchConfig(Scheme scheme, const std::string &obsDir)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.seed = 5;
    cfg.shadow.mode = ShadowMode::HdOnly;
    // Observed, so the snapshot carries the optional kSectionObs.
    cfg.obs.metrics = true;
    cfg.obs.interval = 100;
    cfg.obs.dir = obsDir;
    cfg.obs.label = "layout";
    return cfg;
}

/**
 * Interrupt @p cfg mid-trace, then resume once per section of @p order
 * from the snapshot without it.
 */
void
expectBatchNeedsEverySectionButObs(const SystemConfig &cfg,
                                   const std::vector<std::uint32_t> &order)
{
    const auto trace = makeTrace("mcf", 600, 3);
    const RunMetrics straight = runSystem(cfg, trace);
    const std::uint64_t key = configFingerprint(cfg);

    TempDir first;
    {
        SystemConfig interrupted = cfg;
        interrupted.interruptAfterAccesses = 250;
        ckpt::CheckpointSession session(first.path(), key);
        EXPECT_THROW(runSystem(interrupted, trace, &session),
                     InterruptedError);
    }
    const Layout layout = readLayout(first, key, order);

    for (std::uint32_t drop : order) {
        SCOPED_TRACE("without section " + std::to_string(drop));
        TempDir dir;
        ckpt::CheckpointSession session(dir.path(), key);
        commitWithout(session, layout, drop);
        if (drop == ckpt::kSectionObs)
            expectSameMetrics(straight, runSystem(cfg, trace, &session));
        else
            EXPECT_EQ(mismatch([&] { runSystem(cfg, trace, &session); }),
                      lacks(drop));
    }
}

/** A small bursty service point whose queue is deep at the stop. */
svc::ServiceConfig
serviceConfig(const std::string &obsDir)
{
    svc::ServiceConfig cfg;
    cfg.oram.dataBlocks = 1 << 10;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.oram.seed = 7;
    cfg.shadow.mode = ShadowMode::HdOnly;
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.clients = 100;
    cfg.arrivals.addressBlocks = 256;
    cfg.arrivals.meanGapCycles = 400.0;
    cfg.arrivals.burstFactor = 6.0;
    cfg.arrivals.burstOnCycles = 60'000;
    cfg.arrivals.burstOffCycles = 120'000;
    cfg.arrivals.seed = 21;
    cfg.requests = 400;
    cfg.queueCapacity = 16;
    cfg.queueHighWatermark = 12;
    cfg.queueLowWatermark = 4;
    cfg.deadline = 30'000;
    cfg.obs.metrics = true;
    cfg.obs.interval = 100;
    cfg.obs.dir = obsDir;
    cfg.obs.label = "layout-svc";
    return cfg;
}

const std::vector<std::uint32_t> kServiceOrder = {
    ckpt::kSectionSvc,    ckpt::kSectionReqObs, ckpt::kSectionPort,
    ckpt::kSectionOram,   ckpt::kSectionPolicy, ckpt::kSectionDram,
    ckpt::kSectionObs,
};

/** The service snapshot @p cfg leaves after 150 resolved requests. */
Layout
serviceLayout(const svc::ServiceConfig &cfg)
{
    TempDir dir;
    const std::uint64_t key = svc::serviceConfigFingerprint(cfg);
    {
        svc::ServiceConfig interrupted = cfg;
        interrupted.interruptAfterResolved = 150;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(svc::runService(interrupted, &session),
                     InterruptedError);
    }
    return readLayout(dir, key, kServiceOrder);
}

/** Everything a service run reports, as bytes. */
Bytes
serviceBytes(const svc::ServiceStats &s)
{
    ckpt::Serializer out;
    svc::ServiceStats::serde(s, out);
    out.u64(s.finishTime);
    out.u64(s.latencyP50);
    out.u64(s.latencyP99);
    out.u64(s.latencyP999);
    out.u64(s.latencyMax);
    out.f64(s.latencyMean);
    out.str(s.exemplarsJsonl);
    out.str(s.flightJson);
    OramStats::serde(s.oram, out);
    return out.take();
}

/** Resume @p cfg from @p layout: a mismatch whose message holds
 *  @p why. */
void
expectServiceResumeRejects(const svc::ServiceConfig &cfg,
                           const Layout &layout, const char *why)
{
    TempDir dir;
    ckpt::CheckpointSession session(dir.path(),
                                    svc::serviceConfigFingerprint(cfg));
    commitWithout(session, layout);
    const std::string what =
        mismatch([&] { svc::runService(cfg, &session); });
    EXPECT_NE(what.find(why), std::string::npos) << what;
}

void
put64(Bytes &b, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
get64(const Bytes &b, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(b[at + i]) << (8 * i);
    return v;
}

// kSectionSvc: the arrival generator (six u64), the lookahead record
// (flag, three u64, flag), four u64 cursors and the pressure latch,
// then the queue's count and its requests.
constexpr std::size_t kQueueCountAt = 6 * 8 + (1 + 3 * 8 + 1) + 4 * 8 + 1;
constexpr std::size_t kRequestBytes = 6 * 8 + 1 + 4;
// A timeline record: five u64, a flag and a u32, then its segment
// count.
constexpr std::size_t kSegCountAt = 5 * 8 + 1 + 4;

} // namespace

TEST(CkptLayout, TinyBatchNeedsEverySectionButObs)
{
    TempDir obs;
    expectBatchNeedsEverySectionButObs(
        batchConfig(Scheme::Tiny, obs.path()),
        {ckpt::kSectionCpu, ckpt::kSectionPort, ckpt::kSectionOram,
         ckpt::kSectionDram, ckpt::kSectionMetrics, ckpt::kSectionReqObs,
         ckpt::kSectionObs});
}

TEST(CkptLayout, ShadowBatchNeedsEverySectionButObs)
{
    TempDir obs;
    expectBatchNeedsEverySectionButObs(
        batchConfig(Scheme::Shadow, obs.path()),
        {ckpt::kSectionCpu, ckpt::kSectionPort, ckpt::kSectionOram,
         ckpt::kSectionPolicy, ckpt::kSectionDram, ckpt::kSectionMetrics,
         ckpt::kSectionReqObs, ckpt::kSectionObs});
}

TEST(CkptLayout, InsecureBatchNeedsEverySectionButObs)
{
    TempDir obs;
    expectBatchNeedsEverySectionButObs(
        batchConfig(Scheme::Insecure, obs.path()),
        {ckpt::kSectionCpu, ckpt::kSectionMem, ckpt::kSectionDram,
         ckpt::kSectionMetrics, ckpt::kSectionObs});
}

TEST(CkptLayout, ServiceNeedsEverySectionButObs)
{
    TempDir obs;
    const svc::ServiceConfig cfg = serviceConfig(obs.path());
    const Bytes straight = serviceBytes(svc::runService(cfg));
    const Layout layout = serviceLayout(cfg);
    const std::uint64_t key = svc::serviceConfigFingerprint(cfg);

    for (std::uint32_t drop : kServiceOrder) {
        SCOPED_TRACE("without section " + std::to_string(drop));
        TempDir dir;
        ckpt::CheckpointSession session(dir.path(), key);
        commitWithout(session, layout, drop);
        if (drop == ckpt::kSectionObs)
            EXPECT_EQ(serviceBytes(svc::runService(cfg, &session)),
                      straight);
        else
            EXPECT_EQ(mismatch([&] { svc::runService(cfg, &session); }),
                      lacks(drop));
    }
}

TEST(CkptServiceForge, TimelineSegmentCountBeyondItsArrayThrows)
{
    TempDir obs;
    const svc::ServiceConfig cfg = serviceConfig(obs.path());
    Layout layout = serviceLayout(cfg);
    Bytes &req = layout.bytes.at(ckpt::kSectionReqObs);
    ASSERT_GT(get64(req, 0), 0u) << "no queued timeline record";
    put64(req, 8 + kSegCountAt, obs::TimelineRecord::kMaxSegs + 1);
    expectServiceResumeRejects(cfg, layout, "segment array");
}

TEST(CkptServiceForge, TimelineRecordCountUnlikeTheQueueThrows)
{
    TempDir obs;
    const svc::ServiceConfig cfg = serviceConfig(obs.path());
    Layout layout = serviceLayout(cfg);
    Bytes &req = layout.bytes.at(ckpt::kSectionReqObs);
    put64(req, 0, get64(req, 0) + 1);
    expectServiceResumeRejects(cfg, layout, "timeline records for a queue");
}

TEST(CkptServiceForge, QueueDeeperThanCapacityThrows)
{
    TempDir obs;
    const svc::ServiceConfig cfg = serviceConfig(obs.path());
    Layout layout = serviceLayout(cfg);
    Bytes &svcBytes = layout.bytes.at(ckpt::kSectionSvc);
    Bytes &req = layout.bytes.at(ckpt::kSectionReqObs);
    const std::uint64_t depth = get64(svcBytes, kQueueCountAt);
    ASSERT_GT(depth, 0u);
    ASSERT_EQ(get64(req, 0), depth);

    // Repeat the first queued request and its timeline record until
    // the queue holds one more than the capacity, keeping the two
    // sections consistent with each other.
    const std::uint64_t deeper = cfg.queueCapacity + 1;
    const std::size_t reqAt = kQueueCountAt + 8;
    const Bytes request(svcBytes.begin() + reqAt,
                        svcBytes.begin() + reqAt + kRequestBytes);
    put64(svcBytes, kQueueCountAt, deeper);
    for (std::uint64_t i = depth; i < deeper; ++i)
        svcBytes.insert(svcBytes.begin() + reqAt, request.begin(),
                        request.end());

    ckpt::Deserializer in(req.data() + 8, req.size() - 8);
    obs::TimelineRecord first;
    first.loadState(in);
    const std::size_t recBytes = req.size() - 8 - in.remaining();
    const Bytes record(req.begin() + 8, req.begin() + 8 + recBytes);
    put64(req, 0, deeper);
    for (std::uint64_t i = depth; i < deeper; ++i)
        req.insert(req.begin() + 8, record.begin(), record.end());

    expectServiceResumeRejects(cfg, layout,
                               "for a queue of depth 17 and capacity 16");
}
