/**
 * @file
 * Run options, result record and small statistics helpers shared by
 * the workload runners.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;  ///< Span file (traced runs); empty = none.
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload runner hands back to main(). */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }

    /** Record a failed check: the run is reported incorrect. */
    void fail(const std::string &why);
};

/**
 * Log-binned latency histogram: constant memory however long the run,
 * with nearest-rank percentiles within 0.12 % of the exact sample
 * (1000 bins per decade from 10 ns to 100 ms).
 */
class LatencyHistogram
{
  public:
    void add(double us);
    /** Nearest-rank percentile, @p q in (0, 1]; 0 when empty. */
    double percentile(double q) const;

  private:
    static constexpr double kMinUs = 0.01;
    static constexpr int kBinsPerDecade = 1000;
    static constexpr int kBins = 7 * kBinsPerDecade;

    std::vector<std::uint64_t> _bins = std::vector<std::uint64_t>(kBins);
    std::uint64_t _count = 0;
};

/**
 * Best pass: the lowest (or highest) value of @p v, 0 when empty.
 * Rates, set-up times and per-call medians report the least disturbed
 * pass.  On a shared host, other tenants slow every CPU of a run by up
 * to 1.6x for seconds to minutes at a time; a run's median then
 * reports the share of its passes that were slowed, while its best
 * pass is stable whenever any pass ran undisturbed.
 */
double lowest(const std::vector<double> &v);
double highest(const std::vector<double> &v);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in (0, 1], of @p v (sorted here). */
double percentile(std::vector<double> v, double q);

/** ru_maxrss of this process, in MB. */
double peakRssMb();

/** FNV-1a step over one 64-bit word. */
inline std::uint64_t
mix(std::uint64_t h, std::uint64_t word)
{
    return (h ^ word) * 0x100000001b3ULL;
}

inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/** Render the result line every run ends with. */
std::string resultJson(const RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
