#include "Metrics.hh"

#include <algorithm>
#include <cstdio>

namespace sboram {
namespace obs {

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

Counter &
MetricRegistry::counter(const char *name)
{
    for (auto &c : _counters)
        if (c.name == name)
            return c.item;
    _counters.push_back({name, Counter{}});
    return _counters.back().item;
}

void
MetricRegistry::gauge(const char *name, std::function<double()> fn)
{
    for (auto &g : _gauges) {
        if (g.name == name) {
            g.item = std::move(fn);
            return;
        }
    }
    _gauges.push_back({name, std::move(fn)});
}

HistogramSink &
MetricRegistry::histogramLog2(const char *name, std::size_t bins)
{
    for (auto &h : _histograms)
        if (h.name == name)
            return h.item;
    _histograms.push_back({name, HistogramSink(bins)});
    return _histograms.back().item;
}

SortedCut
LatencySample::cut() const
{
    SortedCut cut;
    if (_values.empty())
        return cut;
    std::vector<Cycles> sorted = _values;
    std::sort(sorted.begin(), sorted.end());
    cut.count = sorted.size();
    cut.p50 = nearestRank(sorted, 500);
    cut.p99 = nearestRank(sorted, 990);
    cut.p999 = nearestRank(sorted, 999);
    cut.max = sorted.back();
    for (Cycles v : sorted)
        cut.total += v;
    return cut;
}

std::vector<double>
MetricRegistry::sampleValues() const
{
    std::vector<double> values;
    values.reserve(_counters.size() + _gauges.size());
    for (const auto &c : _counters)
        values.push_back(static_cast<double>(c.item.value));
    for (const auto &g : _gauges)
        values.push_back(g.item ? g.item() : 0.0);
    return values;
}

std::vector<std::string>
MetricRegistry::sampleNames() const
{
    std::vector<std::string> names;
    names.reserve(_counters.size() + _gauges.size());
    for (const auto &c : _counters)
        names.push_back(c.name);
    for (const auto &g : _gauges)
        names.push_back(g.name);
    return names;
}

std::vector<MetricRegistry::NamedHistogram>
MetricRegistry::histograms() const
{
    std::vector<NamedHistogram> out;
    out.reserve(_histograms.size());
    for (const auto &h : _histograms)
        out.push_back({h.name, &h.item});
    return out;
}

template <class Self, class Ar>
void
MetricRegistry::serde(Self &self, Ar &ar)
{
    // Counters and histograms travel as (name, state) pairs.  The
    // save side writes the registered metrics themselves; the load
    // side cannot mirror that, because metrics are registered (in the
    // same deterministic order) by the restored run's own wiring: it
    // reads each pair into scratch and matches it by name, so a
    // registration-order drift is caught rather than silently
    // misattributed.
    std::vector<Named<Counter>> counters;
    std::vector<Named<HistogramSink>> histograms;
    if constexpr (!Ar::kLoading) {
        counters = self._counters;
        histograms = self._histograms;
    }
    ar.seq(counters, [&](auto &c) {
        ar.str(c.name);
        ar.u64(c.item.value);
    });
    ar.seq(histograms, [&](auto &h) {
        ar.str(h.name);
        ar.nested(h.item);
    });
    if constexpr (Ar::kLoading) {
        for (const auto &saved : counters)
            for (auto &c : self._counters)
                if (c.name == saved.name) {
                    c.item.value = saved.item.value;
                    break;
                }
        for (auto &saved : histograms)
            for (auto &h : self._histograms)
                if (h.name == saved.name) {
                    h.item = std::move(saved.item);
                    break;
                }
    }
}

template void MetricRegistry::serde(const MetricRegistry &,
                                    ckpt::Serializer &);
template void MetricRegistry::serde(MetricRegistry &, ckpt::Deserializer &);

void
IntervalSampler::takeSample(std::uint64_t accessesDone,
                            std::uint64_t cycles)
{
    Row row;
    row.access = accessesDone;
    row.cycles = cycles;
    row.values = _registry.sampleValues();
    _rows.push_back(std::move(row));
    _lastSampleAt = accessesDone;
}

std::string
IntervalSampler::renderJsonl() const
{
    const std::vector<std::string> names = _registry.sampleNames();
    std::string out;
    for (const Row &row : _rows) {
        out += "{\"access\": " + std::to_string(row.access) +
               ", \"cycles\": " + std::to_string(row.cycles);
        for (std::size_t i = 0;
             i < row.values.size() && i < names.size(); ++i) {
            out += ", \"" + names[i] +
                   "\": " + formatDouble(row.values[i]);
        }
        out += "}\n";
    }
    for (const auto &h : _registry.histograms()) {
        out += "{\"histogram\": \"" + h.name +
               "\", \"kind\": \"log2\", \"bin_width\": 1"
               ", \"samples\": " + std::to_string(h.sink->samples()) +
               ", \"counts\": [";
        const auto &counts = h.sink->counts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(counts[i]);
        }
        out += "]}\n";
    }
    return out;
}

template <class Self, class Ar>
void
IntervalSampler::serde(Self &self, Ar &ar)
{
    ar.u64(self._lastSampleAt);
    ar.seq(self._rows, [&](auto &row) {
        ar.u64(row.access);
        ar.u64(row.cycles);
        ar.seq(row.values, [&](auto &v) { ar.f64(v); });
    });
}

template void IntervalSampler::serde(const IntervalSampler &,
                                     ckpt::Serializer &);
template void IntervalSampler::serde(IntervalSampler &, ckpt::Deserializer &);

} // namespace obs
} // namespace sboram
