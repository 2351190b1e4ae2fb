#include "Stats.hh"

#include <algorithm>

#include "Logging.hh"

namespace sboram {

double
gmean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        SB_ASSERT(v > 0.0, "gmean over non-positive value %f", v);
        // sblint:allow-next-line(float-accum): accumulates in the caller-supplied vector order, which is deterministic
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

SortedCut
sortedCut(std::vector<std::uint64_t> sample)
{
    SortedCut cut;
    if (sample.empty())
        return cut;
    std::sort(sample.begin(), sample.end());
    cut.count = sample.size();
    cut.p50 = nearestRank(sample, 500);
    cut.p99 = nearestRank(sample, 990);
    cut.p999 = nearestRank(sample, 999);
    cut.max = sample.back();
    for (std::uint64_t v : sample)
        cut.total += v;
    return cut;
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        // sblint:allow-next-line(float-accum): accumulates in the caller-supplied vector order, which is deterministic
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace sboram
