/**
 * @file
 * The parallel experiment runner must be invisible in the results:
 * running a batch on N workers yields field-for-field the same
 * RunMetrics as the inline 1-thread path, and the process-wide trace
 * cache hands out one immutable trace per (workload, misses, seed).
 */

#include <gtest/gtest.h>

#include <optional>

#include "RunMetricsUtil.hh"
#include "sim/ExperimentRunner.hh"

using namespace sboram;
using sboram::test::expectSameMetrics;

namespace {

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

constexpr std::uint64_t kMisses = 1200;
constexpr std::uint64_t kSeed = 99;

std::vector<ExperimentPoint>
samplePoints()
{
    std::vector<ExperimentPoint> points;
    for (const char *wl : {"mcf", "sjeng", "hmmer"}) {
        for (Scheme s :
             {Scheme::Insecure, Scheme::Tiny, Scheme::Shadow}) {
            SystemConfig cfg = smallSystem(s);
            cfg.recordPerMiss = true;
            points.push_back({cfg, wl, kMisses, kSeed});
        }
    }
    return points;
}

} // namespace

TEST(ExperimentRunner, ParallelMatchesSequentialFieldForField)
{
    const std::vector<ExperimentPoint> points = samplePoints();

    ExperimentRunner sequential(1);
    ExperimentRunner parallel(4);
    const std::vector<RunMetrics> seq = sequential.runAll(points);
    const std::vector<RunMetrics> par = parallel.runAll(points);

    ASSERT_EQ(seq.size(), points.size());
    ASSERT_EQ(par.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i) + " (" +
                     points[i].workload + ")");
        expectSameMetrics(seq[i], par[i]);
    }
}

TEST(ExperimentRunner, SequentialMatchesDirectRunWorkload)
{
    const SystemConfig cfg = smallSystem(Scheme::Shadow);
    const RunMetrics direct =
        runWorkload(cfg, "mcf", kMisses, kSeed);

    ExperimentRunner sequential(1);
    const RunMetrics viaRunner =
        sequential.submit(cfg, "mcf", kMisses, kSeed).get();
    expectSameMetrics(direct, viaRunner);
}

TEST(ExperimentRunner, TraceCacheIsPointerStableAndCorrect)
{
    const SharedTrace a = cachedTrace("sjeng", 700, 42);
    const SharedTrace b = cachedTrace("sjeng", 700, 42);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());  // Same cached object.

    // Content identical to an uncached generation.
    const std::vector<LlcMissRecord> fresh =
        makeTrace("sjeng", 700, 42);
    ASSERT_EQ(a->size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*a)[i].addr, fresh[i].addr);
        EXPECT_EQ((*a)[i].isWrite, fresh[i].isWrite);
        EXPECT_EQ((*a)[i].computeGap, fresh[i].computeGap);
    }

    // Distinct keys get distinct traces.
    const SharedTrace c = cachedTrace("sjeng", 700, 43);
    EXPECT_NE(a.get(), c.get());
    const SharedTrace d = cachedTrace("mcf", 700, 42);
    EXPECT_NE(a.get(), d.get());
}

TEST(ExperimentRunner, ConcurrentCacheLookupsShareOneTrace)
{
    ExperimentRunner pool(4);
    std::vector<Future<SharedTrace>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.defer(
            [] { return cachedTrace("hmmer", 600, 7); }));
    const SharedTrace first = futures.front().get();
    for (Future<SharedTrace> &f : futures)
        EXPECT_EQ(f.get().get(), first.get());
}

TEST(ExperimentRunner, SubmitTraceUsesProvidedTrace)
{
    const SharedTrace trace = cachedTrace("namd", 500, 11);
    SystemConfig cfg = smallSystem(Scheme::Tiny);

    ExperimentRunner pool(2);
    const RunMetrics viaShared =
        pool.submitTrace(cfg, trace).get();
    const RunMetrics direct = runSystem(cfg, *trace);
    expectSameMetrics(direct, viaShared);
}

TEST(ExperimentRunner, RunAllPreservesSubmissionOrder)
{
    // Points with different workloads produce different request
    // counts; check results line up with their submission slots.
    std::vector<ExperimentPoint> points;
    for (const char *wl : {"mcf", "libquantum", "namd", "gobmk"})
        points.push_back(
            {smallSystem(Scheme::Tiny), wl, 400, kSeed});

    ExperimentRunner pool(4);
    const std::vector<RunMetrics> got = pool.runAll(points);
    ASSERT_EQ(got.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunMetrics want = runWorkload(
            points[i].cfg, points[i].workload, 400, kSeed);
        SCOPED_TRACE(points[i].workload);
        expectSameMetrics(want, got[i]);
    }
}

TEST(ExperimentRunner, ThrowingTaskFailsTheFuturePromptly)
{
    // Regression: a worker task that threw used to leave its future
    // value-less forever — every get() deadlocked.  Now the
    // exception is captured and rethrown on the caller's thread.
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExperimentRunner pool(threads);
        Future<int> bad = pool.defer(
            []() -> int { throw SimError("task exploded"); });
        Future<int> good = pool.defer([] { return 17; });
        EXPECT_THROW(bad.get(), SimError);
        // A failed future stays failed on repeated get()...
        EXPECT_THROW(bad.get(), SimError);
        // ...and does not poison unrelated tasks.
        EXPECT_EQ(good.get(), 17);
    }
}

TEST(ExperimentRunner, DeferRetryHonoursRetryability)
{
    struct Transient : SimError
    {
        Transient() : SimError("transient") {}
        bool retryable() const override { return true; }
    };

    ExperimentRunner pool(1);

    // Transient failures retry up to the budget, then propagate.
    unsigned calls = 0;
    Future<unsigned> healed = pool.deferRetry(
        // sblint:allow-next-line(missing-stats-lock): retry-count probe; future.get() synchronizes before the counter is read
        [&calls](unsigned attempt) -> unsigned {
            ++calls;
            if (attempt < 2)
                throw Transient();
            return attempt;
        },
        /*retries=*/3);
    EXPECT_EQ(healed.get(), 2u);
    EXPECT_EQ(calls, 3u);

    calls = 0;
    Future<unsigned> exhausted = pool.deferRetry(
        // sblint:allow-next-line(missing-stats-lock): retry-count probe; future.get() synchronizes before the counter is read
        [&calls](unsigned) -> unsigned {
            ++calls;
            throw Transient();
        },
        /*retries=*/2);
    EXPECT_THROW(exhausted.get(), SimError);
    EXPECT_EQ(calls, 3u);  // Initial attempt + 2 retries.

    // Non-retryable errors fail immediately, no second attempt.
    calls = 0;
    Future<unsigned> fatal = pool.deferRetry(
        // sblint:allow-next-line(missing-stats-lock): retry-count probe; future.get() synchronizes before the counter is read
        [&calls](unsigned) -> unsigned {
            ++calls;
            throw SimError("permanent");
        },
        /*retries=*/5);
    EXPECT_THROW(fatal.get(), SimError);
    EXPECT_EQ(calls, 1u);
}

TEST(ExperimentRunner, RetriedPointShiftsOnlyTheFaultSeed)
{
    // retries > 0 must not change attempt 0: a clean point returns
    // bit-identical metrics with or without a retry budget.
    const SystemConfig cfg = smallSystem(Scheme::Shadow);
    ExperimentRunner pool(2);
    const RunMetrics plain =
        pool.submit(cfg, "mcf", kMisses, kSeed).get();
    const RunMetrics withBudget =
        pool.submit(cfg, "mcf", kMisses, kSeed, /*retries=*/3).get();
    expectSameMetrics(plain, withBudget);
}

namespace {

/** Payload-mode HD-only point that throws on an unrecoverable block
 *  (the fault_sweep throw+retry shape, scaled down). */
SystemConfig
throwingPoint(double rate)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Shadow;
    cfg.shadow.mode = ShadowMode::HdOnly;
    cfg.oram.dataBlocks = 1 << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.payloadEnabled = true;
    cfg.oram.stashCapacity = 200;
    cfg.timingProtection = false;
    cfg.oram.fault.rate = rate;
    cfg.oram.fault.seed = 1;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Throw;
    return cfg;
}

/** Direct run of @p cfg as retry @p attempt sees it. */
RunMetrics
runAttempt(SystemConfig cfg, unsigned attempt, const SharedTrace &trace)
{
    cfg.oram.fault.seed += attempt;
    return runSystem(cfg, *trace);
}

/** The CorruptionError @p run throws, or nothing if it completes. */
template <typename Fn>
std::optional<CorruptionError>
corruptionOf(Fn run)
{
    try {
        run();
    } catch (const CorruptionError &e) {
        return e;
    }
    return std::nullopt;
}

} // namespace

TEST(ExperimentRunner, RetryRerunsUnderTheNextFaultSeed)
{
    // Over mcf, 2000 misses, trace seed 7: at rate 1e-3 fault seed 1
    // loses a block (access 795, bucket 1, level 1) and seed 2
    // completes; at rate 2e-2 every fault seed 1..12 loses one (seed
    // 4: access 110, bucket 847, level 9).
    constexpr std::uint64_t kRetryMisses = 2000;
    constexpr std::uint64_t kTraceSeed = 7;
    const SharedTrace trace = cachedTrace("mcf", kRetryMisses, kTraceSeed);

    for (unsigned threads : {1u, 2u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExperimentRunner pool(threads);

        // Attempt 0 throws, attempt 1 completes: the result is the
        // run at fault.seed + 1, field for field.
        const SystemConfig heals = throwingPoint(1e-3);
        EXPECT_THROW(runAttempt(heals, 0, trace), CorruptionError);
        const RunMetrics healed =
            pool.submit(heals, "mcf", kRetryMisses, kTraceSeed,
                        /*retries=*/3)
                .get();
        expectSameMetrics(runAttempt(heals, 1, trace), healed);
        EXPECT_EQ(healed.oram.faultsDetected, 1u);
        EXPECT_EQ(healed.oram.faultsRecovered, 1u);

        // Every attempt throws: the future rethrows the error of the
        // last attempt, the run at fault.seed + retries.
        constexpr unsigned kRetries = 3;
        const SystemConfig lost = throwingPoint(2e-2);
        const auto want = corruptionOf(
            [&] { runAttempt(lost, kRetries, trace); });
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(want->accessCount(), 110u);
        EXPECT_EQ(want->bucket(), 847u);
        EXPECT_EQ(want->level(), 9u);

        // The future outlives the read of its error: the worker may
        // drop the shared state last, and the future's release is the
        // edge that orders that free after the read.
        const Future<RunMetrics> lostFuture =
            pool.submit(lost, "mcf", kRetryMisses, kTraceSeed, kRetries);
        const auto got = corruptionOf([&] { lostFuture.get(); });
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->accessCount(), want->accessCount());
        EXPECT_EQ(got->bucket(), want->bucket());
        EXPECT_EQ(got->level(), want->level());
    }
}

TEST(ExperimentRunner, DefaultThreadsRespectsEnvironment)
{
    // Only checks the parsing contract: an explicit override wins.
    // (The environment is process-global, so restore it.)
    // sblint:allow-next-line(ambient-nondeterminism): test saves/restores the env var it is exercising
    const char *old = std::getenv("SB_BENCH_THREADS");
    const std::string saved = old ? old : "";

    setenv("SB_BENCH_THREADS", "3", 1);
    EXPECT_EQ(ExperimentRunner::defaultThreads(), 3u);
    setenv("SB_BENCH_THREADS", "1", 1);
    EXPECT_EQ(ExperimentRunner::defaultThreads(), 1u);

    if (old)
        setenv("SB_BENCH_THREADS", saved.c_str(), 1);
    else
        unsetenv("SB_BENCH_THREADS");
}
