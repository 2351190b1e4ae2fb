/**
 * @file
 * MetricRegistry / IntervalSampler unit tests: registration order is
 * the column order, the sampler's cadence and rows are exact, the
 * JSONL rendering is valid JSON Lines, and sampler state survives a
 * serde round trip without losing or double-counting rows.  The
 * exact LatencySample cuts nearest-rank percentiles and saves its
 * values as one vecU64 in insertion order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ckpt/Serde.hh"
#include "obs/Json.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"

using namespace sboram;
using namespace sboram::obs;

TEST(MetricRegistry, CountersKeepIdentityAcrossLookups)
{
    MetricRegistry reg;
    Counter &a = reg.counter(kMetricRequests);
    a.add(3);
    Counter &b = reg.counter(kMetricRequests);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value, 3u);
    EXPECT_EQ(reg.counterCount(), 1u);
}

TEST(MetricRegistry, SampleOrderIsCountersThenGauges)
{
    MetricRegistry reg;
    reg.gauge(kMetricStashReal, [] { return 7.0; });
    reg.counter(kMetricRequests).add(2);
    reg.gauge(kMetricStashShadow, [] { return 9.0; });

    const std::vector<std::string> names = reg.sampleNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], kMetricRequests);
    EXPECT_EQ(names[1], kMetricStashReal);
    EXPECT_EQ(names[2], kMetricStashShadow);

    const std::vector<double> values = reg.sampleValues();
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(values[0], 2.0);
    EXPECT_DOUBLE_EQ(values[1], 7.0);
    EXPECT_DOUBLE_EQ(values[2], 9.0);
}

TEST(MetricRegistry, GaugesArePolledAtSampleTime)
{
    MetricRegistry reg;
    double level = 1.0;
    reg.gauge(kMetricPartitionLevel, [&level] { return level; });
    EXPECT_DOUBLE_EQ(reg.sampleValues()[0], 1.0);
    level = 5.0;
    EXPECT_DOUBLE_EQ(reg.sampleValues()[0], 5.0);
}

TEST(HistogramSink, BinsAndOverflow)
{
    HistogramSink h(4);  // Log2 bins below 8 are one value wide.
    h.sample(0.0);
    h.sample(0.9);
    h.sample(1.5);
    h.sample(1e9);
    h.sample(-3.0);  // Clamped into bin 0.
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.counts()[0], 3u);
    EXPECT_EQ(h.counts()[1], 1u);
    // Past the top boundary, log2BinOf() clamps into the last bin;
    // the trailing overflow slot is never filled.
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_EQ(h.counts()[4], 0u);
}

// --- exact latency sample ----------------------------------------------

namespace {

/** 1..n, ascending. */
std::vector<std::uint64_t>
ranks(std::uint64_t n)
{
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(SortedCut, EmptySampleIsAllZero)
{
    const SortedCut cut = LatencySample().cut();
    EXPECT_EQ(cut.count, 0u);
    EXPECT_EQ(cut.p50, 0u);
    EXPECT_EQ(cut.p999, 0u);
    EXPECT_EQ(cut.max, 0u);
    EXPECT_EQ(cut.total, 0u);
}

TEST(SortedCut, SortsThenCuts)
{
    std::vector<std::uint64_t> v = ranks(1001);
    std::reverse(v.begin(), v.end());
    LatencySample sample;
    for (std::uint64_t x : v)
        sample.add(x);
    const SortedCut cut = sample.cut();
    EXPECT_EQ(cut.count, 1001u);
    EXPECT_EQ(cut.p50, 501u);
    EXPECT_EQ(cut.p99, 991u);
    EXPECT_EQ(cut.p999, 1000u);
    EXPECT_EQ(cut.max, 1001u);
    EXPECT_EQ(cut.total, 1001u * 1002u / 2);
}

TEST(LatencySample, WireIsOneVecU64InInsertionOrder)
{
    const std::vector<std::uint64_t> values = {30, 10, 20, 10, 5};
    LatencySample sample;
    for (std::uint64_t x : values)
        sample.add(x);
    // Cutting sorts a copy: the saved order stays insertion order.
    EXPECT_EQ(sample.cut().max, 30u);

    ckpt::Serializer out;
    sample.saveState(out);
    ckpt::Serializer expected;
    expected.vecU64(values);
    EXPECT_EQ(out.buffer(), expected.buffer());

    LatencySample back;
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    back.loadState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(back.size(), values.size());
    ckpt::Serializer again;
    back.saveState(again);
    EXPECT_EQ(again.buffer(), out.buffer());
}

TEST(IntervalSampler, CadenceHonoursInterval)
{
    MetricRegistry reg;
    reg.counter(kMetricRequests);
    IntervalSampler sampler(reg, 100);

    for (std::uint64_t a = 1; a <= 350; ++a)
        sampler.onAccess(a, a * 10);
    // Samples at 100, 200, 300 — never between.
    ASSERT_EQ(sampler.rows().size(), 3u);
    EXPECT_EQ(sampler.rows()[0].access, 100u);
    EXPECT_EQ(sampler.rows()[1].access, 200u);
    EXPECT_EQ(sampler.rows()[2].access, 300u);
    EXPECT_EQ(sampler.rows()[2].cycles, 3000u);
}

TEST(IntervalSampler, RowsSnapshotCounterValues)
{
    MetricRegistry reg;
    Counter &c = reg.counter(kMetricRequests);
    IntervalSampler sampler(reg, 1);

    c.add(4);
    sampler.onAccess(1, 10);
    c.add(6);
    sampler.onAccess(2, 20);
    ASSERT_EQ(sampler.rows().size(), 2u);
    EXPECT_DOUBLE_EQ(sampler.rows()[0].values[0], 4.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[1].values[0], 10.0);
}

TEST(IntervalSampler, RenderedJsonlIsValid)
{
    MetricRegistry reg;
    reg.counter(kMetricRequests).add(17);
    reg.gauge(kMetricDriCounter, [] { return 2.5; });
    reg.histogramLog2(kMetricReqLatency, 4).sample(100.0);
    IntervalSampler sampler(reg, 1);
    sampler.onAccess(1, 11);
    sampler.onAccess(2, 22);

    const std::string jsonl = sampler.renderJsonl();
    const JsonVerdict v = validateJsonl(jsonl);
    EXPECT_TRUE(v.ok) << v.error << " at byte " << v.errorOffset;
    // Row keys carry the metric names verbatim.
    EXPECT_NE(jsonl.find(kMetricRequests), std::string::npos);
    EXPECT_NE(jsonl.find(kMetricDriCounter), std::string::npos);
    EXPECT_NE(jsonl.find(kMetricReqLatency), std::string::npos);
}

TEST(IntervalSampler, StateRoundTripsThroughSerde)
{
    MetricRegistry reg;
    Counter &c = reg.counter(kMetricRequests);
    reg.histogramLog2(kMetricReqLatency, 8).sample(50.0);
    IntervalSampler sampler(reg, 100);
    c.add(40);
    for (std::uint64_t a = 1; a <= 250; ++a)
        sampler.onAccess(a, a);

    ckpt::Serializer out;
    reg.saveState(out);
    sampler.saveState(out);

    // Fresh run, same registration order (the resume contract).
    MetricRegistry reg2;
    reg2.counter(kMetricRequests);
    reg2.histogramLog2(kMetricReqLatency, 8);
    IntervalSampler sampler2(reg2, 100);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    reg2.loadState(in);
    sampler2.loadState(in);

    EXPECT_EQ(reg2.counter(kMetricRequests).value, 40u);
    ASSERT_EQ(sampler2.rows().size(), sampler.rows().size());
    // The restored cadence must not re-sample access 200: the next
    // sample is due at 300, exactly as if never interrupted.
    sampler2.onAccess(299, 299);
    EXPECT_EQ(sampler2.rows().size(), sampler.rows().size());
    sampler2.onAccess(300, 300);
    EXPECT_EQ(sampler2.rows().size(), sampler.rows().size() + 1);
    EXPECT_EQ(sampler2.renderJsonl().find(
                  sampler.renderJsonl().substr(0, 40)),
              0u);
}

TEST(FormatDouble, RoundTripsExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 12345.678901234567, 0.0, -2.5}) {
        const std::string s = formatDouble(v);
        EXPECT_EQ(std::stod(s), v) << s;
    }
}
