/**
 * @file
 * Request-level observability (DESIGN.md §13), tested bottom-up:
 * log2 binning is monotone with exact bounds, the timeline pool
 * recycles deterministically, stage totals balance against measured
 * latency, exemplar selection is insertion-order independent, the SLO
 * monitor's burn-rate arithmetic matches hand-computed windows, and —
 * the end-to-end contracts — a pipeline run reproduces its exemplar
 * and flight artifacts byte-for-byte across repeat runs and across
 * kill-and-resume.
 */

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/Checkpoint.hh"
#include "ckpt/Serde.hh"
#include "common/Errors.hh"
#include "crypto/Prf.hh"
#include "obs/Json.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"
#include "obs/RequestTrace.hh"
#include "obs/Slo.hh"
#include "svc/Service.hh"

using namespace sboram;
using namespace sboram::obs;

namespace {

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sbreqobs-XXXXXX";
        const char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        _path = d ? d : "";
    }
    ~TempDir()
    {
        if (!_path.empty()) {
            const std::string cmd = "rm -rf " + _path;
            if (system(cmd.c_str()) != 0) {
            }
        }
    }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

/** Overloaded bursty point: retries, backoff, dedup, sheds and
 *  backpressure all fire, so every stage gets samples. */
svc::ServiceConfig
obsServiceConfig()
{
    svc::ServiceConfig cfg;
    cfg.oram.dataBlocks = 1 << 10;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.oram.seed = 7;
    cfg.shadow.mode = ShadowMode::HdOnly;
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.clients = 1000;
    cfg.arrivals.addressBlocks = 256;
    cfg.arrivals.zipfAlpha = 1.0;
    cfg.arrivals.writeFraction = 0.2;
    cfg.arrivals.meanGapCycles = 1800.0;
    cfg.arrivals.burstFactor = 6.0;
    cfg.arrivals.burstOnCycles = 60'000;
    cfg.arrivals.burstOffCycles = 120'000;
    cfg.arrivals.seed = 21;
    cfg.requests = 600;
    cfg.queueCapacity = 32;
    cfg.queueHighWatermark = 24;
    cfg.queueLowWatermark = 8;
    // Tight deadline + a generous retry ladder: requests that miss
    // during a burst back off repeatedly and complete in the off
    // phase, so the retry-backoff stage gets real samples; the
    // off-phase lull keeps duplication alive for shadow forwards.
    cfg.deadline = 6'000;
    cfg.maxRetries = 4;
    cfg.retryBackoffCycles = 2'000;
    cfg.slo.latencyBound = cfg.deadline;
    cfg.slo.windowRequests = 64;
    return cfg;
}

} // namespace

// --- log2 binning -----------------------------------------------------

TEST(Log2Bins, MonotoneWithExactBounds)
{
    std::size_t prev = 0;
    for (std::uint64_t v = 0; v < 100'000; v += 7) {
        const std::size_t bin =
            HistogramSink::log2BinOf(v, kDefaultLog2Bins);
        EXPECT_GE(bin, prev) << "bin order broke at v=" << v;
        prev = bin;
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        HistogramSink::log2BinBounds(bin, lo, hi);
        EXPECT_LE(lo, v);
        EXPECT_GT(hi, v) << "bounds exclude v=" << v;
    }
}

TEST(Log2Bins, KindTagRoundTripsThroughSerde)
{
    HistogramSink h(kDefaultLog2Bins);
    h.sample(3.0);
    h.sample(1000.0);
    h.sample(1e9);
    ckpt::Serializer out;
    h.saveState(out);
    // Kind tag 1 (log2), then bin width 1.0: the wire layout the
    // snapshot digests pin.
    ASSERT_GT(out.buffer().size(), 9u);
    EXPECT_EQ(out.buffer()[0], 1u);
    ckpt::Deserializer head(out.buffer().data() + 1,
                            out.buffer().size() - 1);
    EXPECT_EQ(head.f64(), 1.0);

    HistogramSink back;  // Restore target; the stream sizes it.
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    back.loadState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(back.samples(), h.samples());
    EXPECT_EQ(back.counts(), h.counts());
    ckpt::Serializer again;
    back.saveState(again);
    EXPECT_EQ(again.buffer(), out.buffer());
}

TEST(Log2Bins, LoaderRejectsAnyOtherKind)
{
    HistogramSink h(8);
    h.sample(5.0);
    ckpt::Serializer out;
    h.saveState(out);
    for (std::uint8_t kind : {0, 2, 255}) {
        std::vector<std::uint8_t> bytes = out.buffer();
        bytes[0] = kind;  // The retired linear kind was 0.
        HistogramSink back;
        ckpt::Deserializer in(bytes.data(), bytes.size());
        EXPECT_THROW(back.loadState(in), CkptMismatchError)
            << "kind " << unsigned(kind);
    }
}

// --- timeline pool and record -----------------------------------------

TEST(TimelinePool, RecyclesLowestIndexFirst)
{
    TimelinePool pool(4);
    EXPECT_EQ(pool.freeCount(), 4u);
    const std::uint32_t a = pool.acquire();
    const std::uint32_t b = pool.acquire();
    EXPECT_NE(a, b);
    pool.release(b);
    pool.release(a);
    // Deterministic recycling: the same acquire/release sequence must
    // yield the same slot assignment on every run (resume re-acquires
    // in queue order and depends on this).
    EXPECT_EQ(pool.acquire(), a);
    EXPECT_EQ(pool.acquire(), b);
    EXPECT_EQ(pool.freeCount(), 2u);
}

TEST(TimelineRecord, StageTotalsBalanceAndTruncationIsCounted)
{
    TimelineRecord rec;
    rec.reset(7, 3, 42, 100);
    // Wait [100,150), backoff [150,180), access [180,200).
    rec.stage(kStageQueueWait, 100, 150);
    rec.stage(kStageRetryBackoff, 150, 180);
    rec.stage(kStagePathAccess, 180, 200);
    rec.stage(kStageDedupJoin, 200, 200);  // Zero-length: dropped.
    EXPECT_EQ(rec.totalAll(), 100u);
    EXPECT_EQ(rec.total(kStageIdQueueWait), 50u);
    EXPECT_EQ(rec.total(kStageIdRetryBackoff), 30u);
    EXPECT_EQ(rec.segCount(), 3u);
    EXPECT_EQ(rec.truncated(), 0u);

    // Overflow the segment list: totals stay exact, detail truncates.
    for (int i = 0; i < 20; ++i)
        rec.stage(kStageQueueWait, 1000 + i * 2, 1000 + i * 2 + 1);
    EXPECT_EQ(rec.segCount(), TimelineRecord::kMaxSegs);
    EXPECT_GT(rec.truncated(), 0u);
    EXPECT_EQ(rec.totalAll(), 120u);
}

// --- exemplar reservoir -----------------------------------------------

TEST(ExemplarReservoir, SelectionIsInsertionOrderIndependent)
{
    const PrfKey key{0x1234, 0x5678};
    ExemplarReservoir fwd(key, 3, kDefaultLog2Bins);
    ExemplarReservoir rev(key, 3, kDefaultLog2Bins);

    std::vector<TimelineRecord> recs(40);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].reset(i, i % 5, i * 3, i * 100);
        recs[i].stage(kStageQueueWait, i * 100, i * 100 + 50 + i);
    }
    for (std::size_t i = 0; i < recs.size(); ++i)
        fwd.offer(recs[i], 50 + i, false, 0);
    for (std::size_t i = recs.size(); i-- > 0;)
        rev.offer(recs[i], 50 + i, false, 0);

    EXPECT_EQ(fwd.size(), rev.size());
    EXPECT_EQ(fwd.renderJsonl(), rev.renderJsonl());
    const JsonVerdict v = validateJsonl(fwd.renderJsonl());
    EXPECT_TRUE(v.ok) << v.error;
}

TEST(ExemplarReservoir, SerdeRoundTripPreservesTheKeptSet)
{
    const PrfKey key{0x1234, 0x5678};
    ExemplarReservoir res(key, 2, kDefaultLog2Bins);
    std::vector<TimelineRecord> recs(10);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].reset(i, i, i, 0);
        recs[i].stage(kStagePathAccess, 0, 100 + i * 37);
        res.offer(recs[i], 100 + i * 37, i % 2 == 0, 1);
    }
    ckpt::Serializer out;
    res.saveState(out);
    ExemplarReservoir back(key, 2, kDefaultLog2Bins);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    back.loadState(in);
    EXPECT_EQ(back.renderJsonl(), res.renderJsonl());
}

// --- SLO monitor ------------------------------------------------------

TEST(SloMonitor, GoldenWindowBurnRates)
{
    // bound 100, 99.0% objective -> 10-permille bad budget, window 10.
    SloConfig cfg;
    cfg.latencyBound = 100;
    cfg.goodPermille = 990;
    cfg.windowRequests = 10;
    cfg.burnMilliThreshold = 2000;
    SloMonitor slo(cfg);
    ASSERT_TRUE(slo.enabled());
    EXPECT_TRUE(slo.isGood(100));
    EXPECT_FALSE(slo.isGood(101));

    // Window 1: all good.  Burn 0 — closes without a breach.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(slo.onResolved(true), -1);
    EXPECT_EQ(slo.windows(), 1u);
    EXPECT_EQ(slo.breaches(), 0u);

    // Window 2: one bad in ten = 100% bad-rate over a 1% budget
    // consumed at 10x the sustainable rate -> burn 10000 milli.
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(slo.onResolved(true), -1);
    EXPECT_EQ(slo.onResolved(false), 10000);
    EXPECT_EQ(slo.windows(), 2u);
    EXPECT_EQ(slo.breaches(), 1u);
    EXPECT_EQ(slo.worstBurnMilli(), 10000u);

    // Trailing partial window: 4 good + 1 bad = burn 20000.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(slo.onResolved(true), -1);
    EXPECT_EQ(slo.onResolved(false), -1);  // Window not full yet.
    EXPECT_EQ(slo.flush(), 20000);
    EXPECT_EQ(slo.windows(), 3u);
    EXPECT_EQ(slo.breaches(), 2u);
    EXPECT_EQ(slo.worstBurnMilli(), 20000u);
}

TEST(SloMonitor, DisabledAndSerde)
{
    SloConfig off;  // latencyBound 0 = no objective.
    SloMonitor idle(off);
    EXPECT_FALSE(idle.enabled());

    SloConfig cfg;
    cfg.latencyBound = 50;
    cfg.windowRequests = 4;
    SloMonitor slo(cfg);
    slo.onResolved(true);
    slo.onResolved(false);
    ckpt::Serializer out;
    slo.saveState(out);
    SloMonitor back(cfg);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    back.loadState(in);
    EXPECT_EQ(back.flush(), slo.flush());
    EXPECT_EQ(back.windows(), slo.windows());
    EXPECT_EQ(back.breaches(), slo.breaches());
}

// --- end-to-end through the pipeline ----------------------------------

TEST(RequestObs, PipelineArtifactsAreReproducible)
{
    const svc::ServiceConfig cfg = obsServiceConfig();
    const svc::ServiceStats a = svc::runService(cfg);
    const svc::ServiceStats b = svc::runService(cfg);

    EXPECT_EQ(a.stageBalanceViolations, 0u);
    EXPECT_EQ(b.stageBalanceViolations, 0u);
    EXPECT_EQ(a.exemplarsJsonl, b.exemplarsJsonl);
    EXPECT_EQ(a.flightJson, b.flightJson);
    for (std::size_t i = 0; i < kStageIdCount; ++i) {
        EXPECT_EQ(a.stages[i].count, b.stages[i].count);
        EXPECT_EQ(a.stages[i].total, b.stages[i].total);
        EXPECT_EQ(a.stages[i].p999, b.stages[i].p999);
    }

    // The overload point exercises every stage but dedup-join's
    // backoff corner; the big four must have samples.
    EXPECT_GT(a.stages[kStageIdQueueWait].count, 0u);
    EXPECT_GT(a.stages[kStageIdRetryBackoff].count, 0u);
    EXPECT_GT(a.stages[kStageIdPathAccess].count, 0u);
    EXPECT_GT(a.stages[kStageIdShadowForward].count, 0u);

    // SLO: the tight deadline under burst overload must burn budget.
    EXPECT_GT(a.sloWindows, 0u);
    EXPECT_EQ(a.sloBreaches, b.sloBreaches);
    EXPECT_EQ(a.sloWorstBurnMilli, b.sloWorstBurnMilli);

    // Artifacts parse under the strict validator.
    EXPECT_TRUE(validateJsonl(a.exemplarsJsonl).ok);
    EXPECT_TRUE(validateJson(a.flightJson).ok);
    EXPECT_NE(a.flightJson.find("\"kind\": \"shed_admission\""),
              std::string::npos);
}

TEST(RequestObs, KillAndResumeReproducesObsArtifacts)
{
    const svc::ServiceConfig cfg = obsServiceConfig();
    const svc::ServiceStats s0 = svc::runService(cfg);
    ASSERT_GT(s0.requestsShed, 0u);

    TempDir dir;
    const std::uint64_t key = svc::serviceConfigFingerprint(cfg);
    {
        svc::ServiceConfig interrupted = cfg;
        interrupted.checkpointInterval = 50;
        interrupted.interruptAfterResolved = 250;
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(svc::runService(interrupted, &session),
                     InterruptedError);
    }
    svc::ServiceConfig resumed = cfg;
    resumed.checkpointInterval = 50;
    ckpt::CheckpointSession session(dir.path(), key);
    const svc::ServiceStats s1 = svc::runService(resumed, &session);

    // The kSectionReqObs section must carry the sampler, accumulator,
    // SLO and ring across the kill: artifacts match stat for stat.
    EXPECT_EQ(s0.exemplarsJsonl, s1.exemplarsJsonl);
    EXPECT_EQ(s0.flightJson, s1.flightJson);
    EXPECT_EQ(s0.stageBalanceViolations, s1.stageBalanceViolations);
    EXPECT_EQ(s0.sloWindows, s1.sloWindows);
    EXPECT_EQ(s0.sloBreaches, s1.sloBreaches);
    EXPECT_EQ(s0.sloWorstBurnMilli, s1.sloWorstBurnMilli);
    for (std::size_t i = 0; i < kStageIdCount; ++i) {
        EXPECT_EQ(s0.stages[i].count, s1.stages[i].count);
        EXPECT_EQ(s0.stages[i].total, s1.stages[i].total);
        EXPECT_EQ(s0.stages[i].p50, s1.stages[i].p50);
        EXPECT_EQ(s0.stages[i].p99, s1.stages[i].p99);
        EXPECT_EQ(s0.stages[i].p999, s1.stages[i].p999);
        EXPECT_EQ(s0.stages[i].max, s1.stages[i].max);
    }
}
