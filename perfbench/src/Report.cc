#include "Report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

void
RunResult::fail(const std::string &why)
{
    correct = false;
    notes.push_back("FAILED: " + why);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
lowest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
highest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    k = std::clamp<std::size_t>(k, 1, v.size());
    return v[k - 1];
}

void
LatencyHistogram::add(double us)
{
    const double pos = std::log10(std::max(us, kMinUs) / kMinUs) *
                       kBinsPerDecade;
    const int bin = std::min(static_cast<int>(pos), kBins - 1);
    ++_bins[static_cast<std::size_t>(bin)];
    ++_count;
}

double
LatencyHistogram::percentile(double q) const
{
    if (_count == 0)
        return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(_count))));
    std::uint64_t seen = 0;
    int bin = 0;
    for (; bin < kBins - 1; ++bin) {
        seen += _bins[static_cast<std::size_t>(bin)];
        if (seen >= rank)
            break;
    }
    // Geometric midpoint of the bin.
    return kMinUs * std::pow(10.0, (bin + 0.5) / kBinsPerDecade);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string
resultJson(const RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        // %.17g keeps every digit the double holds; non-finite values
        // are not JSON and are reported as 0.
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
