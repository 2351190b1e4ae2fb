/**
 * @file
 * Time-series metrics and latency samples for one simulation run
 * (DESIGN.md §9).
 *
 * A MetricRegistry holds named counters, gauges and log2 histograms
 * in registration order.  One registry belongs to exactly one run,
 * and a run executes on exactly one ExperimentRunner worker, so every
 * sink is a plain per-thread (unshared, lock-free) slot: the hot path
 * is `++value` with no atomics and no locks.  Cross-run aggregation
 * happens offline, over the emitted artifacts.
 *
 * The IntervalSampler snapshots every registered metric each N
 * completed accesses into an in-memory row buffer, which is flushed
 * as JSONL (one row object per line, fixed key order = registration
 * order) when the run closes.  The rows travel inside checkpoints
 * (ckpt::kSectionObs) so a resumed run neither loses nor
 * double-counts samples.
 *
 * LatencySample is the exact counterpart of a histogram: it keeps
 * every value and cuts nearest-rank percentiles from them.
 */

#ifndef SBORAM_OBS_METRICS_HH
#define SBORAM_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Errors.hh"
#include "common/Stats.hh"
#include "common/Types.hh"

namespace sboram {
namespace obs {

/** Monotonic per-run counter; add() is the only mutation. */
struct Counter
{
    std::uint64_t value = 0;

    void add(std::uint64_t delta = 1) { value += delta; }
};

/** Sub-buckets per octave of the Log2 (HDR-style) histogram kind: a
 *  power of two, giving a fixed <= 12.5% relative bin width at any
 *  magnitude. */
inline constexpr std::size_t kLog2SubBuckets = 8;

/** Default bin count for log-bucketed latency histograms: 192 bins of
 *  8 sub-buckets resolve values up to ~2^26 cycles (larger values
 *  clamp into the last bin), so storm-profile retry latencies sit
 *  mid-range. */
inline constexpr std::size_t kDefaultLog2Bins = 192;

/**
 * Fixed-capacity HDR-style histogram over virtual cycles: log2 bins,
 * kLog2SubBuckets per octave with exact integer boundaries, so tail
 * percentile bins stay ~12.5% wide at any latency magnitude.  The
 * counts carry one slot past the last bin, which log2BinOf()'s clamp
 * never fills.  The serialized form leads with a kind tag (always
 * log2) and a bin width (always 1.0), which the kSectionObs snapshot
 * layout fixes; a stream carrying any other kind tag is rejected.
 */
class HistogramSink
{
  public:
    /** @p bins log2 bins plus the trailing slot (0: a restore target
     *  whose state is loaded). */
    explicit HistogramSink(std::size_t bins = 0) : _counts(bins + 1, 0)
    {
    }

    void
    sample(double v)
    {
        std::size_t bin = log2BinOf(
            v < 0 ? 0 : static_cast<std::uint64_t>(v),
            _counts.size() - 1);
        if (bin >= _counts.size() - 1)
            bin = _counts.size() - 1;
        ++_counts[bin];
        ++_n;
    }

    /**
     * Log2 bin index of @p v among @p bins bins (values >= the top
     * boundary land in the clamped last bin).  Shared with the
     * exemplar reservoir so "high histogram bin" means the same thing
     * in the histogram footer and the exemplar rows.
     */
    static std::size_t
    log2BinOf(std::uint64_t v, std::size_t bins)
    {
        std::size_t bin;
        if (v < kLog2SubBuckets) {
            bin = static_cast<std::size_t>(v);
        } else {
            unsigned msb = 0;
            for (std::uint64_t x = v; x > 1; x >>= 1)
                ++msb;
            // log2(kLog2SubBuckets) low bits become the sub-bucket.
            unsigned k = 0;
            for (std::size_t s = kLog2SubBuckets; s > 1; s >>= 1)
                ++k;
            const std::uint64_t sub =
                (v >> (msb - k)) & (kLog2SubBuckets - 1);
            bin = static_cast<std::size_t>(msb - k + 1) *
                      kLog2SubBuckets +
                  static_cast<std::size_t>(sub);
        }
        return bin >= bins ? bins - 1 : bin;
    }

    /** Inclusive-lo / exclusive-hi value boundaries of a log2 bin. */
    static void
    log2BinBounds(std::size_t bin, std::uint64_t &lo,
                  std::uint64_t &hi)
    {
        if (bin < kLog2SubBuckets) {
            lo = bin;
            hi = bin + 1;
            return;
        }
        const std::size_t octave = bin / kLog2SubBuckets;
        const std::size_t sub = bin % kLog2SubBuckets;
        lo = static_cast<std::uint64_t>(kLog2SubBuckets + sub)
             << (octave - 1);
        hi = lo + (std::uint64_t(1) << (octave - 1));
    }

    const std::vector<std::uint64_t> &counts() const { return _counts; }
    std::uint64_t samples() const { return _n; }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    /** Kind tag of the log2 layout on the wire. */
    static constexpr std::uint8_t kLog2Kind = 1;

    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        std::uint8_t kind = kLog2Kind;
        double width = 1.0;
        ar.u8(kind);
        ar.f64(width);
        if constexpr (Ar::kLoading)
            if (kind != kLog2Kind)
                throw CkptMismatchError(
                    "histogram kind " + std::to_string(kind) +
                    " is not log2");
        ar.u64(self._n);
        ar.vecU64(self._counts);
    }

    std::vector<std::uint64_t> _counts;
    std::uint64_t _n = 0;
};

/**
 * Exact latency sample: every value in insertion order, cut into
 * nearest-rank percentiles on demand.  The one latency-sample type:
 * the service's end-to-end latency and each per-stage attribution
 * sample are LatencySamples, and their cuts feed ServiceStats.  The
 * wire form is one vecU64 of the values in insertion order.
 */
class LatencySample
{
  public:
    void reserve(std::size_t n) { _values.reserve(n); }
    void add(Cycles v) { _values.push_back(v); }
    std::size_t size() const { return _values.size(); }

    /** Sort a copy and cut it with nearestRank(). */
    SortedCut cut() const;

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.vecU64(self._values);
    }

    std::vector<Cycles> _values;
};

/**
 * Named metric container for one run.  Registration order is the
 * artifact column order, so registering in a deterministic order
 * makes the emitted files byte-stable across thread counts.
 */
class MetricRegistry
{
  public:
    /** Counter under @p name (created on first use). */
    Counter &counter(const char *name);

    /** Register a polled gauge.  Re-registering replaces the fn. */
    void gauge(const char *name, std::function<double()> fn);

    /** Log2-binned histogram under @p name (created on first use). */
    HistogramSink &histogramLog2(const char *name, std::size_t bins);

    /**
     * Current value of every counter and gauge, in registration
     * order (counters first).  Gauges are polled now.
     */
    std::vector<double> sampleValues() const;

    /** Column names matching sampleValues(), in the same order. */
    std::vector<std::string> sampleNames() const;

    std::size_t counterCount() const { return _counters.size(); }
    std::size_t gaugeCount() const { return _gauges.size(); }
    std::size_t histogramCount() const { return _histograms.size(); }

    /** Named histogram rows for the artifact footer. */
    struct NamedHistogram
    {
        std::string name;
        const HistogramSink *sink;
    };
    std::vector<NamedHistogram> histograms() const;

    /** Counters and histogram contents travel; gauges re-register. */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    template <typename T>
    struct Named
    {
        std::string name;
        T item;
    };

    std::vector<Named<Counter>> _counters;
    std::vector<Named<std::function<double()>>> _gauges;
    std::vector<Named<HistogramSink>> _histograms;
};

/**
 * Records one registry row every @p interval completed accesses.
 * Rows carry (access count, simulated cycles, metric values).
 */
class IntervalSampler
{
  public:
    IntervalSampler(MetricRegistry &registry, std::uint64_t interval)
        : _registry(registry),
          _interval(interval == 0 ? 1 : interval) {}

    /** Observe an access boundary; samples when the cadence says so. */
    void
    onAccess(std::uint64_t accessesDone, std::uint64_t cycles)
    {
        if (accessesDone - _lastSampleAt < _interval)
            return;
        takeSample(accessesDone, cycles);
    }

    /** Unconditional sample (run start / run end). */
    void takeSample(std::uint64_t accessesDone, std::uint64_t cycles);

    struct Row
    {
        std::uint64_t access = 0;
        std::uint64_t cycles = 0;
        std::vector<double> values;
    };

    const std::vector<Row> &rows() const { return _rows; }
    std::uint64_t interval() const { return _interval; }

    /**
     * Render rows + histogram footer as JSONL.  Key order is the
     * registry's registration order; numbers use %.17g so the text
     * round-trips doubles exactly (byte-stable across runs).
     */
    std::string renderJsonl() const;

    /** Row buffer and cursor travel in checkpoints. */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    MetricRegistry &_registry;
    std::uint64_t _interval;
    std::uint64_t _lastSampleAt = 0;
    std::vector<Row> _rows;
};

/** Format a double the way every obs artifact does (%.17g). */
std::string formatDouble(double v);

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_METRICS_HH
