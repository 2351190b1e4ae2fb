#include "obs/RequestTrace.hh"

#include <algorithm>
#include <cstring>

#include "common/Logging.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"

namespace sboram {
namespace obs {

StageId
stageIdOf(const char *name)
{
    // Call sites pass the kStage* constants, so pointer identity hits
    // first; the strcmp fallback keeps serialized names working.
    if (name == kStageQueueWait ||
        std::strcmp(name, kStageQueueWait) == 0)
        return kStageIdQueueWait;
    if (name == kStageRetryBackoff ||
        std::strcmp(name, kStageRetryBackoff) == 0)
        return kStageIdRetryBackoff;
    if (name == kStageDedupJoin ||
        std::strcmp(name, kStageDedupJoin) == 0)
        return kStageIdDedupJoin;
    if (name == kStagePathAccess ||
        std::strcmp(name, kStagePathAccess) == 0)
        return kStageIdPathAccess;
    if (name == kStageShadowForward ||
        std::strcmp(name, kStageShadowForward) == 0)
        return kStageIdShadowForward;
    SB_ASSERT(false, "unknown stage name '%s' (must come from "
              "obs/MetricNames.hh)", name);
    return kStageIdQueueWait;
}

const char *
stageName(StageId id)
{
    switch (id) {
    case kStageIdQueueWait: return kStageQueueWait;
    case kStageIdRetryBackoff: return kStageRetryBackoff;
    case kStageIdDedupJoin: return kStageDedupJoin;
    case kStageIdPathAccess: return kStagePathAccess;
    case kStageIdShadowForward: return kStageShadowForward;
    default: break;
    }
    return kStageQueueWait;
}

template <class Self, class Ar>
void
TimelineRecord::serde(Self &self, Ar &ar)
{
    ar.u64(self._seq);
    ar.u64(self._client);
    ar.u64(self._addr);
    ar.u64(self._arrival);
    ar.u64(self._openStart);
    ar.u8As(self._inBackoff);
    ar.u32(self._truncated);
    std::uint64_t nSegs = self._nSegs;
    ar.u64(nSegs);
    if constexpr (Ar::kLoading) {
        SB_ASSERT(nSegs <= kMaxSegs,
                  "timeline record overflows its segment array");
        self._nSegs = static_cast<std::size_t>(nSegs);
    }
    for (std::size_t i = 0; i < self._nSegs; ++i)
        StageSeg::serde(self._segs[i], ar);
    for (auto &total : self._totals)
        ar.u64(total);
}

template void TimelineRecord::serde(const TimelineRecord &,
                                    ckpt::Serializer &);
template void TimelineRecord::serde(TimelineRecord &, ckpt::Deserializer &);

TimelinePool::TimelinePool(std::size_t capacity)
    : _records(capacity)
{
    _free.reserve(capacity);
    // Lowest index on top of the stack, so acquisition order is
    // deterministic and snapshot-stable.
    for (std::size_t i = capacity; i > 0; --i)
        _free.push_back(static_cast<std::uint32_t>(i - 1));
}

std::uint32_t
TimelinePool::acquire()
{
    SB_ASSERT(!_free.empty(),
              "timeline pool exhausted (capacity %zu) — in-flight "
              "requests exceeded the admission-queue bound",
              _records.size());
    const std::uint32_t slot = _free.back();
    _free.pop_back();
    return slot;
}

void
TimelinePool::release(std::uint32_t slot)
{
    SB_ASSERT(slot < _records.size(), "bad timeline slot %u", slot);
    _free.push_back(slot);
}

ExemplarReservoir::ExemplarReservoir(PrfKey key, std::size_t perBin,
                                     std::size_t bins)
    : _key(key), _perBin(perBin == 0 ? 1 : perBin), _bins(bins)
{
}

void
ExemplarReservoir::offer(const TimelineRecord &rec, Cycles latency,
                         bool usedShadow, std::uint32_t attempts)
{
    const std::uint32_t bin = static_cast<std::uint32_t>(
        HistogramSink::log2BinOf(latency, _bins));
    Exemplar e;
    e.priority = prf64(_key, rec.seq(), 0);
    e.seq = rec.seq();
    e.client = rec.client();
    e.addr = rec.addr();
    e.arrival = rec.arrival();
    e.latency = latency;
    e.attempts = attempts;
    e.usedShadow = usedShadow;
    e.truncated = rec.truncated();
    e.segs.reserve(rec.segCount());
    for (std::size_t i = 0; i < rec.segCount(); ++i)
        e.segs.push_back(rec.seg(i));

    std::vector<Exemplar> &kept = _kept[bin];
    auto at = std::upper_bound(
        kept.begin(), kept.end(), e,
        [](const Exemplar &a, const Exemplar &b) {
            return a.priority != b.priority
                       ? a.priority < b.priority
                       : a.seq < b.seq;
        });
    kept.insert(at, std::move(e));
    if (kept.size() > _perBin)
        kept.pop_back();
}

std::size_t
ExemplarReservoir::size() const
{
    std::size_t n = 0;
    for (const auto &kv : _kept)
        n += kv.second.size();
    return n;
}

std::string
ExemplarReservoir::renderJsonl() const
{
    std::string out;
    for (const auto &kv : _kept) {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        HistogramSink::log2BinBounds(kv.first, lo, hi);
        for (const Exemplar &e : kv.second) {
            out += "{\"bin\": " + std::to_string(kv.first) +
                   ", \"bin_lo\": " + std::to_string(lo) +
                   ", \"bin_hi\": " + std::to_string(hi) +
                   ", \"seq\": " + std::to_string(e.seq) +
                   ", \"client\": " + std::to_string(e.client) +
                   ", \"addr\": " + std::to_string(e.addr) +
                   ", \"arrival\": " + std::to_string(e.arrival) +
                   ", \"latency\": " + std::to_string(e.latency) +
                   ", \"attempts\": " + std::to_string(e.attempts) +
                   ", \"shadow\": " +
                   (e.usedShadow ? "true" : "false") +
                   ", \"truncated_segs\": " +
                   std::to_string(e.truncated) + ", \"stages\": [";
            for (std::size_t i = 0; i < e.segs.size(); ++i) {
                if (i)
                    out += ", ";
                out += "{\"stage\": \"";
                out += stageName(
                    static_cast<StageId>(e.segs[i].stage));
                out += "\", \"start\": " +
                       std::to_string(e.segs[i].start) +
                       ", \"end\": " +
                       std::to_string(e.segs[i].end) + "}";
            }
            out += "]}\n";
        }
    }
    return out;
}

template <class Self, class Ar>
void
ExemplarReservoir::serde(Self &self, Ar &ar)
{
    // (bin, exemplars) pairs in ascending bin order (the map's own).
    std::vector<std::pair<std::uint32_t, std::vector<Exemplar>>> bins;
    if constexpr (!Ar::kLoading)
        bins.assign(self._kept.begin(), self._kept.end());
    ar.seq(bins, [&](auto &bin) {
        ar.u32(bin.first);
        ar.seq(bin.second, [&](auto &e) {
            ar.u64(e.priority);
            ar.u64(e.seq);
            ar.u64(e.client);
            ar.u64(e.addr);
            ar.u64(e.arrival);
            ar.u64(e.latency);
            ar.u32(e.attempts);
            ar.u8As(e.usedShadow);
            ar.u32(e.truncated);
            ar.seq(e.segs, [&](auto &seg) { StageSeg::serde(seg, ar); });
        });
    });
    if constexpr (Ar::kLoading) {
        self._kept.clear();
        for (auto &[bin, kept] : bins)
            self._kept.emplace(bin, std::move(kept));
    }
}

template void ExemplarReservoir::serde(const ExemplarReservoir &,
                                       ckpt::Serializer &);
template void ExemplarReservoir::serde(ExemplarReservoir &,
                                       ckpt::Deserializer &);

} // namespace obs
} // namespace sboram
