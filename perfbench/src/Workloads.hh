/**
 * @file
 * The benchmark's workloads and the per-layer ledger they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "Probe.hh"
#include "Report.hh"
#include "mem/DramModel.hh"
#include "oram/TinyOram.hh"
#include "shadow/HotAddressCache.hh"
#include "sim/System.hh"

namespace perfbench {

/** Misses per batch pass: an untimed warm-up prefix, then the timed
 *  misses. */
inline constexpr std::uint64_t kBatchWarmupMisses = 2000;
inline constexpr std::uint64_t kBatchTimedMisses = 6000;

/** paperSystem() at 2^16 blocks with payloads, Shadow in @p mode. */
sboram::SystemConfig batchConfig(sboram::ShadowMode mode);

/** batch-rd / batch-hd: TinyOram::access over an mcf miss trace. */
RunResult runBatch(const Options &opt);

/** svc-ladder: ServicePipeline::run over a ladder of arrival rates. */
RunResult runSvcLadder(const Options &opt);

/** Name and unit of one reported metric. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, in BENCHMARK.json order. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Every per-layer metric, in BENCHMARK.json order. */
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * Copy @p values into @p r in the canonical order of the mode's list.
 * A per-layer metric the workload does not exercise reads 0; an
 * end-to-end metric must be present.  A name outside the list is a
 * programming error and fails the run.
 */
void emitMetrics(RunResult &r, const std::map<std::string, double> &values,
                 bool trace);

/** Public counters of one controller, read at one instant. */
struct CounterSnap
{
    sboram::OramStats oram;
    sboram::DramStats dram;
    std::uint64_t plbHits = 0;
    std::uint64_t plbMisses = 0;
    std::uint64_t hotHits = 0;
    std::uint64_t hotMisses = 0;
    HookCounts hooks;
    std::uint64_t nonces = 0;
};

/** Read every counter; @p probe and @p hot may be null. */
CounterSnap snapCounters(const sboram::TinyOram &oram,
                         sboram::DramModel &dram,
                         const ProbePolicy *probe,
                         const sboram::HotAddressCache *hot);

/**
 * The codec's nonce counter.  TinyOram keeps its codec private; its
 * public checkpoint image carries the counter as the fifth word.
 */
std::uint64_t noncesIssued(const sboram::TinyOram &oram);

/** Per-layer ledger summed over the traced ops of a run. */
struct LayerAgg
{
    std::uint64_t ops = 0;
    SpanTotals spans;
    CounterSnap delta;  ///< Counter increments over the traced ops.
    double stashShadowSum = 0.0;
    std::uint64_t stashRealPeak = 0;

    /** Add the increments between @p before and @p after. */
    void addDelta(const CounterSnap &before, const CounterSnap &after);
};

/** oram.*, shadow.*, crypto.* (counts) and mem.* (counts) values. */
void layerValues(const LayerAgg &agg,
                 std::map<std::string, double> &values);

/** Isolated timings on path-sized inputs. */
struct IsolatedTimings
{
    double encryptNsPerSlot = 0.0;
    double verifyDecryptNsPerSlot = 0.0;
    double pathBatchUs = 0.0;
    bool verified = true;  ///< Every decrypted slot verified.
};

/** encryptBatch / verifyDecrypt over one path's worth of slots. */
void timeCrypto(const sboram::TinyOram &oram, IsolatedTimings &out);

/** DramModel::accessBatch of one path of @p oram's geometry. */
void timePathBatch(const sboram::TinyOram &oram,
                   const sboram::DramModel &dram, IsolatedTimings &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
