/**
 * @file
 * Lightweight statistics primitives: the exact nearest-rank
 * percentile and its cut, and the mean helpers the evaluation section
 * relies on (arithmetic and geometric means across workloads).  The
 * one latency-sample type that produces a SortedCut is
 * obs::LatencySample (obs/Metrics.hh).
 */

#ifndef SBORAM_COMMON_STATS_HH
#define SBORAM_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <vector>

namespace sboram {

/**
 * Nearest-rank percentile of an ascending-sorted sample, @p q in
 * thousandths (500 = p50, 999 = p999): the value at 1-based rank
 * ceil(n * q / 1000), clamped to rank 1.  0 for an empty sample.
 */
inline std::uint64_t
nearestRank(const std::vector<std::uint64_t> &sorted, std::uint64_t q)
{
    if (sorted.empty())
        return 0;
    const std::uint64_t n = sorted.size();
    std::uint64_t k = (n * q + 999) / 1000;
    if (k == 0)
        k = 1;
    return sorted[k - 1];
}

/** Exact cut of an integer sample (cycles): every field 0 if empty.
 *  Produced by obs::LatencySample::cut(). */
struct SortedCut
{
    std::uint64_t count = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t max = 0;
    std::uint64_t total = 0;  ///< Sum over the sample.
};

/** Geometric mean of a vector of strictly positive values. */
double gmean(const std::vector<double> &values);

/** Arithmetic mean. */
double amean(const std::vector<double> &values);

} // namespace sboram

#endif // SBORAM_COMMON_STATS_HH
