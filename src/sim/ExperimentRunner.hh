/**
 * @file
 * Parallel experiment execution for the figure/table benches.
 *
 * Every paper figure is a sweep over independent (SystemConfig,
 * workload) points: each run owns its CPU, ORAM, DRAM and policy
 * state, so points are embarrassingly parallel.  The runner is a
 * fixed-size thread pool that executes submitted points concurrently
 * and hands results back through futures, so a bench can enqueue its
 * whole sweep up front and then print rows in submission order —
 * the printed output is byte-identical to a sequential run.
 *
 * With one thread the runner executes every task inline at submission
 * time, which *is* the old sequential path (same execution order,
 * same interleaving of any stderr diagnostics).
 *
 * Results come back as Future<T>, which is std::shared_future<T>.  A
 * point submitted with retries that fails with a retryable SimError
 * reruns at once under the next fault seed (fault.seed + attempt).
 * The simulation is deterministic and nothing outside the process
 * heals while a worker waits, so there is no backoff and no budget.
 *
 * A process-wide trace cache backs the runner: the Tiny/RD/HD triples
 * of a figure all replay the same (workload, misses, seed) trace, and
 * regenerating it per point used to be the benches' second-largest
 * cost.  Cached traces are immutable and shared by pointer.
 */

#ifndef SBORAM_SIM_EXPERIMENTRUNNER_HH
#define SBORAM_SIM_EXPERIMENTRUNNER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "System.hh"
#include "common/Errors.hh"
#include "workload/Workload.hh"

namespace sboram {

/**
 * Handle to a submitted experiment's result.  get() blocks until the
 * worker finishes; the reference stays valid as long as any copy of
 * the future is alive.  A task that threw fails the future: get()
 * rethrows the exception on the caller's thread (every call — a
 * failed future stays failed).
 */
template <typename T>
using Future = std::shared_future<T>;

/** Immutable, shareable LLC-miss trace. */
using SharedTrace = std::shared_ptr<const std::vector<LlcMissRecord>>;

/**
 * Process-wide trace cache keyed by (workload, misses, seed).  The
 * first caller generates the trace; concurrent callers for the same
 * key block until it is ready.  Repeated calls return the same
 * pointer (pointer-stable for the life of the process).
 */
SharedTrace cachedTrace(const std::string &workload,
                        std::uint64_t misses, std::uint64_t seed);

/** One experiment point for batch submission. */
struct ExperimentPoint
{
    SystemConfig cfg;
    std::string workload;
    std::uint64_t misses = 0;
    std::uint64_t seed = 0;
};

class ExperimentRunner
{
  public:
    /**
     * @param threads Worker count.  1 (or 0) means no workers: tasks
     * run inline at submission, reproducing the sequential path.
     */
    explicit ExperimentRunner(unsigned threads = defaultThreads());
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    unsigned threads() const { return _threads; }

    /**
     * Run one experiment point (trace via the process-wide cache).
     * @param retries Extra attempts after a *retryable* SimError
     * (e.g. a transient-fault CorruptionError).  Each retry reruns at
     * once under the next fault seed (fault.seed + attempt), so it
     * sees a fresh fault realisation; attempt 0 is always the
     * configured seed.
     */
    Future<RunMetrics> submit(const SystemConfig &cfg,
                              std::string workload,
                              std::uint64_t misses,
                              std::uint64_t seed,
                              unsigned retries = 0);

    /** Run one point over an already-materialised trace. */
    Future<RunMetrics> submitTrace(const SystemConfig &cfg,
                                   SharedTrace trace);

    /**
     * Run a batch and return results in submission order, regardless
     * of completion order.
     */
    std::vector<RunMetrics>
    runAll(const std::vector<ExperimentPoint> &points);

    /**
     * Defer an arbitrary callable onto the pool (benches with custom
     * drive loops — stash occupancy, security distinguishers — are
     * sweeps too).  The callable must be self-contained: it may not
     * touch state shared with other tasks.
     */
    template <typename Fn>
    auto
    defer(Fn fn) -> Future<std::invoke_result_t<Fn &>>
    {
        using R = std::invoke_result_t<Fn &>;
        // std::function needs a copyable task, so the promise lives
        // behind a shared_ptr.
        auto promise = std::make_shared<std::promise<R>>();
        Future<R> future = promise->get_future().share();
        post([promise, fn = std::move(fn)]() mutable {
            // A throwing task must fail its future, not unwind the
            // worker thread: an uncaught exception here would
            // std::terminate the process and leave every other
            // get() deadlocked.
            try {
                promise->set_value(fn());
            } catch (...) {
                promise->set_exception(std::current_exception());
            }
        });
        return future;
    }

    /**
     * defer() with immediate retry: @p fn receives the attempt number
     * (0-based).  A SimError whose retryable() is true reruns @p fn at
     * once, up to @p retries extra attempts; the last attempt's error
     * fails the future.  Non-retryable errors fail it immediately.
     */
    template <typename Fn>
    auto
    deferRetry(Fn fn, unsigned retries)
        -> Future<std::invoke_result_t<Fn &, unsigned>>
    {
        return defer([fn = std::move(fn), retries]() mutable {
            for (unsigned attempt = 0;; ++attempt) {
                try {
                    return fn(attempt);
                } catch (const SimError &e) {
                    if (!e.retryable() || attempt >= retries)
                        throw;
                }
            }
        });
    }

    /**
     * Worker count from the environment: SB_BENCH_THREADS when set
     * and valid (>= 1), else std::thread::hardware_concurrency().
     * SB_BENCH_THREADS=1 forces the sequential path.
     */
    static unsigned defaultThreads();

    /** Shared runner used by all benches of one process. */
    static ExperimentRunner &global();

  private:
    void post(std::function<void()> task);
    void workerLoop();

    unsigned _threads;
    std::vector<std::thread> _workers;
    std::mutex _mutex;
    std::condition_variable _wake;
    std::deque<std::function<void()>> _queue;
    bool _stop = false;
};

} // namespace sboram

#endif // SBORAM_SIM_EXPERIMENTRUNNER_HH
