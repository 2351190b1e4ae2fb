/**
 * @file
 * Trace-driven CPU models.
 *
 * The paper's Table I evaluates two front-ends: a single in-order
 * Alpha core (default) and a quad-core out-of-order configuration
 * (Section VI-E, Fig. 18).  Both are modelled at LLC-miss granularity:
 * the workload supplies compute gaps between misses and dependency
 * flags; the CPU model decides when each miss issues and how reads
 * stall the pipeline.
 */

#ifndef SBORAM_CPU_CPUMODEL_HH
#define SBORAM_CPU_CPUMODEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Types.hh"
#include "workload/Workload.hh"

namespace sboram {

/** What the CPU sees back from the memory system. */
struct MemoryReply
{
    Cycles forwardAt = 0;  ///< When the data reached the LLC.
};

/** Abstract memory system the CPU issues misses into. */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;
    virtual MemoryReply request(Addr addr, Op op, Cycles issueTime) = 0;
};

/** Outcome of running a trace through a CPU model. */
struct CpuRunResult
{
    Cycles finishTime = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

/**
 * Resumable position inside a CPU run: everything the front-end
 * needs to continue a trace exactly where it stopped.  A
 * default-constructed cursor means "start of trace".  The in-order
 * model uses (time, nextIdx); the out-of-order model uses the
 * per-core records.  `partial` accumulates the eventual CpuRunResult.
 */
struct CpuCursor
{
    std::uint64_t accessesDone = 0;

    /**
     * Issue and data-forward cycles of the most recently completed
     * request, refreshed immediately before each CpuStepHook call so
     * observers can derive per-request latency.  Transient: NOT part
     * of saveState/loadState — the next request overwrites both, and
     * a resumed run has no "previous request" to report.
     */
    Cycles lastIssue = 0;
    Cycles lastForward = 0;

    // In-order state.
    Cycles time = 0;
    std::uint64_t nextIdx = 0;

    // Out-of-order per-core state.
    struct Core
    {
        std::uint64_t idx = 0;
        Cycles lastIssue = 0;
        Cycles lastForward = 0;
        std::vector<Cycles> forwards;  ///< Ring of window entries.
    };
    std::vector<Core> cores;

    CpuRunResult partial;

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self.accessesDone);
        ar.u64(self.time);
        ar.u64(self.nextIdx);
        ar.seq(self.cores, [&](auto &c) {
            ar.u64(c.idx);
            ar.u64(c.lastIssue);
            ar.u64(c.lastForward);
            ar.vecU64(c.forwards);
        });
        ar.u64(self.partial.finishTime);
        ar.u64(self.partial.reads);
        ar.u64(self.partial.writes);
    }
};

/**
 * Called after every completed memory request with the post-request
 * cursor.  The checkpoint layer uses it to snapshot at access
 * boundaries and may throw (InterruptedError) to stop the run; the
 * cursor already points past the completed request, so a resumed run
 * continues with the next one.
 */
using CpuStepHook = std::function<void(const CpuCursor &)>;

/**
 * Single in-order core: stalls on every read miss until the data is
 * forwarded; writes retire through a write buffer without stalling.
 */
class InOrderCpu
{
  public:
    CpuRunResult run(const std::vector<LlcMissRecord> &trace,
                     MemoryPort &port) const;

    /** Resumable variant: continues from @p cursor, invoking @p hook
     *  after each request.  Both run() overloads compute identical
     *  results for the same trace and port. */
    CpuRunResult run(const std::vector<LlcMissRecord> &trace,
                     MemoryPort &port, CpuCursor &cursor,
                     const CpuStepHook &hook) const;
};

/**
 * Out-of-order multi-core model: each core overlaps independent
 * misses within a reorder window; dependent misses (pointer chases)
 * serialise on the producer's forward time.  Cores share one memory
 * port, which raises memory intensity — the effect Fig. 18 studies.
 */
class OooCpu
{
  public:
    OooCpu(unsigned cores = 4, unsigned window = 8)
        : _cores(cores), _window(window) {}

    /** @param traces One trace per core. */
    CpuRunResult run(const std::vector<std::vector<LlcMissRecord>>
                         &traces,
                     MemoryPort &port) const;

    /** Resumable variant; see InOrderCpu::run. */
    CpuRunResult run(const std::vector<std::vector<LlcMissRecord>>
                         &traces,
                     MemoryPort &port, CpuCursor &cursor,
                     const CpuStepHook &hook) const;

  private:
    unsigned _cores;
    unsigned _window;
};

} // namespace sboram

#endif // SBORAM_CPU_CPUMODEL_HH
