/**
 * @file
 * Per-request causal stage timelines for the service pipeline
 * (DESIGN.md §13).
 *
 * Each admitted request carries one pooled TimelineRecord: a compact,
 * fixed-capacity list of stage segments (queue wait, retry backoff,
 * dedup join, path access, shadow forward) recorded in virtual
 * cycles.  The pool is sized to the admission-queue capacity and
 * preallocated before the scheduler loop starts, so the hot path does
 * zero heap traffic: acquire/release are free-list pops/pushes and a
 * stage append is an array store.
 *
 * On completion a record feeds two consumers:
 *  - one exact LatencySample per stage (obs/Metrics.hh), held by the
 *    pipeline, whose nearest-rank p50/p99/p999 cuts are the
 *    attribution table ("where does p999 live");
 *  - the ExemplarReservoir, which keeps the K PRF-lowest-priority
 *    completions per log2 latency bin and dumps them as JSONL, so a
 *    high histogram bin links to concrete request traces.
 *
 * Both are pure functions of the service config (PRF-keyed priority,
 * no ambient randomness) and both serialize into the kSectionReqObs
 * snapshot section, so a killed-and-resumed run reproduces the
 * attribution table and the exemplar set stat-for-stat.
 */

#ifndef SBORAM_OBS_REQUESTTRACE_HH
#define SBORAM_OBS_REQUESTTRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Stats.hh"
#include "common/Types.hh"
#include "crypto/Prf.hh"

namespace sboram {
namespace obs {

/** Dense stage index; names live in MetricNames.hh (kStage*). */
enum StageId : std::uint8_t
{
    kStageIdQueueWait = 0,
    kStageIdRetryBackoff = 1,
    kStageIdDedupJoin = 2,
    kStageIdPathAccess = 3,
    kStageIdShadowForward = 4,
    kStageIdCount = 5,
};

/** Stage id for a kStage* name (asserts on an unknown name). */
StageId stageIdOf(const char *name);

/** Canonical kStage* name for a stage id. */
const char *stageName(StageId id);

/** One closed stage segment on a request timeline. */
struct StageSeg
{
    Cycles start = 0;
    Cycles end = 0;
    std::uint8_t stage = 0;  ///< StageId.

    /** Wire format: timeline records and exemplars share it. */
    template <class Self, class Ar>
    static void
    serde(Self &seg, Ar &ar)
    {
        ar.u64(seg.start);
        ar.u64(seg.end);
        ar.u8(seg.stage);
    }
};

/**
 * One request's compact causal timeline.  Fixed capacity: a segment
 * beyond kMaxSegs still lands in the per-stage running totals (the
 * attribution stays exact), only the per-segment detail truncates —
 * and the truncation count says so.
 */
class TimelineRecord
{
  public:
    /** Worst case is wait/backoff alternation across the full retry
     *  ladder plus the terminal access segment; 12 covers it with
     *  room for deeper retry budgets. */
    static constexpr std::size_t kMaxSegs = 12;

    void
    reset(std::uint64_t seq, std::uint64_t client, std::uint64_t addr,
          Cycles arrival)
    {
        _seq = seq;
        _client = client;
        _addr = addr;
        _arrival = arrival;
        _openStart = arrival;
        _inBackoff = false;
        _nSegs = 0;
        _truncated = 0;
        _totals.fill(0);
    }

    /** Append a closed [start, end) segment under a kStage* name. */
    SB_HOT void
    stage(const char *name, Cycles start, Cycles end)
    {
        const StageId id = stageIdOf(name);
        if (end <= start)
            return;
        _totals[id] += end - start;
        if (_nSegs < kMaxSegs) {
            _segs[_nSegs].start = start;
            _segs[_nSegs].end = end;
            _segs[_nSegs].stage = id;
            ++_nSegs;
        } else {
            ++_truncated;
        }
    }

    /** Enter the retry-backoff window at @p at (after a miss). */
    void
    markBackoff(Cycles at)
    {
        _openStart = at;
        _inBackoff = true;
    }

    std::uint64_t seq() const { return _seq; }
    std::uint64_t client() const { return _client; }
    std::uint64_t addr() const { return _addr; }
    Cycles arrival() const { return _arrival; }
    Cycles openStart() const { return _openStart; }
    bool inBackoff() const { return _inBackoff; }
    std::size_t segCount() const { return _nSegs; }
    const StageSeg &seg(std::size_t i) const { return _segs[i]; }
    std::uint32_t truncated() const { return _truncated; }
    Cycles total(StageId id) const { return _totals[id]; }

    /** Sum over every stage — must equal the measured latency. */
    Cycles
    totalAll() const
    {
        Cycles sum = 0;
        for (Cycles t : _totals)
            sum += t;
        return sum;
    }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    std::uint64_t _seq = 0;
    std::uint64_t _client = 0;
    std::uint64_t _addr = 0;
    Cycles _arrival = 0;
    Cycles _openStart = 0;
    bool _inBackoff = false;
    std::uint32_t _truncated = 0;
    std::size_t _nSegs = 0;
    std::array<StageSeg, kMaxSegs> _segs{};
    std::array<Cycles, kStageIdCount> _totals{};
};

/**
 * Fixed-capacity record pool.  Preallocated at construction (cold
 * path); acquire/release are O(1) free-list operations with no
 * allocation.  Capacity must cover the maximum number of in-flight
 * requests — for the service pipeline that is the admission-queue
 * capacity.
 */
class TimelinePool
{
  public:
    explicit TimelinePool(std::size_t capacity);

    /** Claim a free record (asserts the pool is not exhausted). */
    SB_HOT std::uint32_t acquire();

    /** Return a record to the free list. */
    SB_HOT void release(std::uint32_t slot);

    TimelineRecord &at(std::uint32_t slot) { return _records[slot]; }
    const TimelineRecord &
    at(std::uint32_t slot) const
    {
        return _records[slot];
    }

    std::size_t capacity() const { return _records.size(); }
    std::size_t freeCount() const { return _free.size(); }

  private:
    std::vector<TimelineRecord> _records;
    std::vector<std::uint32_t> _free;
};

/** Exact per-stage latency cut of one run (attribution table row):
 *  count = completions with time in the stage.  Cut from one
 *  LatencySample per stage. */
using StageCut = SortedCut;

/**
 * PRF-deterministic exemplar sampling: per log2 latency bin, keep the
 * @p perBin completions with the smallest PRF priority (keyed on the
 * arrival seed, drawn from the request seq — no ambient randomness).
 * Min-K by (priority, seq) is insertion-order independent, so the
 * final set is a pure function of the completion set: byte-identical
 * across thread counts and across kill/resume.
 */
class ExemplarReservoir
{
  public:
    ExemplarReservoir(PrfKey key, std::size_t perBin,
                      std::size_t bins);

    /** Offer one completion (called at every complete()). */
    void offer(const TimelineRecord &rec, Cycles latency,
               bool usedShadow, std::uint32_t attempts);

    /**
     * One JSON object per exemplar, ordered by (bin, priority, seq):
     * bin bounds, identity, outcome and the full stage segment list.
     */
    std::string renderJsonl() const;

    std::size_t size() const;

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    struct Exemplar
    {
        std::uint64_t priority = 0;
        std::uint64_t seq = 0;
        std::uint64_t client = 0;
        std::uint64_t addr = 0;
        Cycles arrival = 0;
        Cycles latency = 0;
        std::uint32_t attempts = 0;
        bool usedShadow = false;
        std::uint32_t truncated = 0;
        std::vector<StageSeg> segs;
    };

    PrfKey _key;
    std::size_t _perBin;
    std::size_t _bins;
    /// bin -> exemplars sorted by (priority, seq), size <= _perBin.
    std::map<std::uint32_t, std::vector<Exemplar>> _kept;
};

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_REQUESTTRACE_HH
