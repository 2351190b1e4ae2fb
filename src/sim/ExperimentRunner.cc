#include "ExperimentRunner.hh"

#include <cstdlib>
#include <unordered_map>

#include "ckpt/Checkpoint.hh"
#include "common/Logging.hh"
#include "obs/Observer.hh"

namespace sboram {

namespace {

struct TraceKey
{
    std::string workload;
    std::uint64_t misses;
    std::uint64_t seed;

    bool operator==(const TraceKey &) const = default;
};

struct TraceKeyHash
{
    std::size_t
    operator()(const TraceKey &k) const
    {
        std::size_t h = std::hash<std::string>{}(k.workload);
        h ^= std::hash<std::uint64_t>{}(k.misses) + 0x9e3779b9 +
             (h << 6) + (h >> 2);
        h ^= std::hash<std::uint64_t>{}(k.seed) + 0x9e3779b9 +
             (h << 6) + (h >> 2);
        return h;
    }
};

std::mutex g_traceMutex;
std::unordered_map<TraceKey, Future<SharedTrace>, TraceKeyHash>
    g_traceCache;

/**
 * Stable identity of one experiment point across process relaunches:
 * everything that determines the run's outcome, including the retry
 * attempt (each attempt shifts the fault seed, so attempts are
 * distinct points with distinct snapshots).
 */
std::uint64_t
pointKey(const SystemConfig &cfg, const std::string &workload,
         std::uint64_t misses, std::uint64_t seed, unsigned attempt)
{
    ckpt::Serializer s;
    s.u64(configFingerprint(cfg));
    s.str(workload);
    s.u64(misses);
    s.u64(seed);
    s.u32(attempt);
    return ckpt::fnv1a(s.buffer().data(), s.buffer().size());
}

/**
 * Execute one point with checkpoint durability when SB_CKPT_DIR is
 * active: a completed point is answered from its .done marker (an
 * invalid marker just reruns the point), an in-flight point resumes
 * from its newest valid snapshot, and completion atomically persists
 * the final metrics before the in-flight snapshots are deleted.
 */
RunMetrics
runPointDurable(SystemConfig cfg, const std::string &workload,
                std::uint64_t misses, std::uint64_t seed,
                unsigned attempt, const SharedTrace &trace)
{
    const std::string *dir = ckpt::activeDirectory();
    if (dir == nullptr)
        return runSystem(cfg, *trace);

    if (cfg.checkpointInterval == 0)
        cfg.checkpointInterval = ckpt::defaultInterval();
    ckpt::CheckpointSession session(
        *dir, pointKey(cfg, workload, misses, seed, attempt));

    if (auto done = session.loadResult()) {
        auto d = done->section(ckpt::kSectionResult);
        return loadRunMetrics(d);
    }

    RunMetrics m = runSystem(cfg, *trace, &session);
    ckpt::SnapshotWriter writer;
    saveRunMetrics(writer.section(ckpt::kSectionResult), m);
    session.commitResult(writer);
    session.removeSnapshots();
    return m;
}

} // namespace

SharedTrace
cachedTrace(const std::string &workload, std::uint64_t misses,
            std::uint64_t seed)
{
    // Two-phase lookup so one producer generates while others (for
    // the same key) wait on the shared future instead of repeating
    // the work, and lookups for other keys proceed unblocked.
    std::promise<SharedTrace> producer;
    Future<SharedTrace> slot;
    bool isProducer = false;
    {
        std::lock_guard<std::mutex> lock(g_traceMutex);
        TraceKey key{workload, misses, seed};
        auto it = g_traceCache.find(key);
        if (it == g_traceCache.end()) {
            slot = producer.get_future().share();
            g_traceCache.emplace(std::move(key), slot);
            isProducer = true;
        } else {
            slot = it->second;
        }
    }
    if (isProducer) {
        auto trace = std::make_shared<const std::vector<LlcMissRecord>>(
            makeTrace(workload, misses, seed));
        producer.set_value(trace);
        return trace;
    }
    // sblint:allow-next-line(unbounded-wait): the producer that inserted the cache slot always sets the value before returning (or the process dies with it); entries are never abandoned
    return slot.get();
}

ExperimentRunner::ExperimentRunner(unsigned threads)
    : _threads(threads == 0 ? 1 : threads)
{
    if (_threads < 2)
        return;  // Sequential path: no workers, tasks run inline.
    _workers.reserve(_threads);
    for (unsigned i = 0; i < _threads; ++i)
        _workers.emplace_back([this, i] {
            // Worker lanes are 1-based; 0 is the inline/main lane.
            obs::setWorkerIndex(i + 1);
            workerLoop();
        });
}

ExperimentRunner::~ExperimentRunner()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _wake.notify_all();
    for (std::thread &w : _workers)
        w.join();
}

void
ExperimentRunner::post(std::function<void()> task)
{
    if (_workers.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _queue.push_back(std::move(task));
    }
    _wake.notify_one();
}

void
ExperimentRunner::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            // sblint:allow-next-line(unbounded-wait): the destructor sets _stop under the lock and notifies all; workers always wake to drain or exit
            _wake.wait(lock,
                       [&] { return _stop || !_queue.empty(); });
            if (_queue.empty())
                return;  // _stop and drained.
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        task();
    }
}

Future<RunMetrics>
ExperimentRunner::submit(const SystemConfig &cfg, std::string workload,
                         std::uint64_t misses, std::uint64_t seed,
                         unsigned retries)
{
    // Trace generation happens on the worker so it parallelises too;
    // the cache deduplicates concurrent generation per key.
    return deferRetry(
        [cfg, workload = std::move(workload), misses,
         seed](unsigned attempt) {
            SharedTrace trace = cachedTrace(workload, misses, seed);
            // A retry reruns the point under a shifted fault seed: a
            // fresh fault realisation, same workload.  Attempt 0 is
            // bit-identical to a plain submit.
            SystemConfig c = cfg;
            c.oram.fault.seed += attempt;
            obs::applyEnv(c.obs);
            // Stable artifact names: one label per point identity,
            // independent of thread count and launch order.
            if (c.obs.any() && c.obs.label.empty())
                c.obs.label = obs::makeLabel(
                    workload,
                    pointKey(c, workload, misses, seed, attempt));
            return runPointDurable(c, workload, misses, seed, attempt,
                                   trace);
        },
        retries);
}

Future<RunMetrics>
ExperimentRunner::submitTrace(const SystemConfig &cfg,
                              SharedTrace trace)
{
    SB_ASSERT(trace != nullptr, "null trace submitted");
    // Caller-materialised traces have no stable identity across
    // process relaunches, so these points run checkpoint-free; use
    // submit() for resumable sweeps.
    return defer([cfg, trace = std::move(trace)] {
        SystemConfig c = cfg;
        obs::applyEnv(c.obs);
        if (c.obs.any() && c.obs.label.empty())
            c.obs.label = obs::makeLabel("trace", configFingerprint(c));
        return runSystem(c, *trace);
    });
}

std::vector<RunMetrics>
ExperimentRunner::runAll(const std::vector<ExperimentPoint> &points)
{
    std::vector<Future<RunMetrics>> futures;
    futures.reserve(points.size());
    for (const ExperimentPoint &p : points)
        futures.push_back(
            submit(p.cfg, p.workload, p.misses, p.seed));
    std::vector<RunMetrics> results;
    results.reserve(futures.size());
    for (const Future<RunMetrics> &f : futures)
        // sblint:allow-next-line(unbounded-wait): every submitted task sets a value or an error (the worker wraps the body in a catch-all); futures cannot leak unresolved
        results.push_back(f.get());
    return results;
}

unsigned
ExperimentRunner::defaultThreads()
{
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    // sblint:allow-next-line(ambient-nondeterminism): thread-count knob changes scheduling only; results are thread-count-invariant by construction
    if (const char *env = std::getenv("SB_BENCH_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end == env || *end != '\0' || v == 0 || v > 4096) {
            SB_WARN("ignoring invalid SB_BENCH_THREADS='%s' "
                    "(want an integer in [1, 4096]); using %u",
                    env, hw);
            return hw;
        }
        return static_cast<unsigned>(v);
    }
    return hw;
}

ExperimentRunner &
ExperimentRunner::global()
{
    static ExperimentRunner runner(defaultThreads());
    return runner;
}

} // namespace sboram
