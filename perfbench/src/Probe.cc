#include "Probe.hh"

#include <cstdio>

namespace perfbench {

using namespace sboram;

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Access: return "oram.access";
    case SpanKind::ProbePosmap: return "oram.probe_posmap";
    case SpanKind::PathRead: return "oram.path_read";
    case SpanKind::EvictRead: return "oram.evict_read";
    case SpanKind::WritePrepare: return "oram.write_prepare";
    case SpanKind::WriteFill: return "oram.write_fill";
    case SpanKind::WriteFinish: return "oram.write_finish";
    case SpanKind::MemWrite: return "mem.write";
    case SpanKind::Shadow: return "shadow.policy";
    case SpanKind::Count: break;
    }
    return "?";
}

void
Tracer::beginOp(std::uint32_t op)
{
    _inOp = true;
    _op = op;
    _spans.clear();
    _shadowNs.clear();
    _shadowFirst.clear();
    _open = -1;
    _spans.push_back(Span{SpanKind::Access, -1, op, nowNs(), 0});
    _shadowNs.push_back(0);
    _shadowFirst.push_back(0);
}

void
Tracer::openPhase(SpanKind kind, std::int64_t t)
{
    _open = static_cast<std::int32_t>(_spans.size());
    _spans.push_back(Span{kind, 0, _op, t, t});
    _shadowNs.push_back(0);
    _shadowFirst.push_back(0);
}

void
Tracer::closePhase(std::int64_t t)
{
    if (_open < 0)
        return;
    _spans[_open].end = t;
    _open = -1;
}

void
Tracer::mark(Mark m, std::int64_t t)
{
    if (!_inOp)
        return;
    const SpanKind openKind =
        _open >= 0 ? _spans[_open].kind : SpanKind::Count;
    switch (m) {
    case Mark::Entry:
        closePhase(t);
        openPhase(SpanKind::ProbePosmap, t);
        break;
    case Mark::ReadHook:
        // Classified when it ends: a request read ends at
        // onRequestClassified, an eviction read at the write hook.
        closePhase(t);
        openPhase(SpanKind::PathRead, t);
        break;
    case Mark::Classified:
        closePhase(t);
        break;
    case Mark::WriteHook:
        if (openKind == SpanKind::PathRead)
            _spans[_open].kind = SpanKind::EvictRead;
        closePhase(t);
        openPhase(SpanKind::WritePrepare, t);
        break;
    case Mark::SelectEnter:
        if (openKind == SpanKind::WritePrepare) {
            closePhase(t);
            openPhase(SpanKind::WriteFill, t);
        }
        break;
    case Mark::SelectExit:
        _lastSelectExit = t;
        break;
    case Mark::EndWrite:
        if (openKind == SpanKind::WriteFill) {
            closePhase(_lastSelectExit);
            openPhase(SpanKind::WriteFinish, _lastSelectExit);
        }
        closePhase(t);
        openPhase(SpanKind::MemWrite, t);
        break;
    }
}

void
Tracer::policyTime(std::int64_t t0, std::int64_t t1)
{
    if (!_inOp)
        return;
    if (_open < 0) {
        // Between phases the calls are few (one classification per
        // path read); each gets its own span so the root's children
        // stay in time order.
        _spans.push_back(Span{SpanKind::Shadow, 0, _op, t0, t1});
        _shadowNs.push_back(0);
        _shadowFirst.push_back(0);
        return;
    }
    // Inside a phase the calls are many (one per candidate and per
    // dummy slot); they fold into one child span of the phase whose
    // length is their sum, placed at the first call.
    if (_shadowNs[_open] == 0)
        _shadowFirst[_open] = t0;
    _shadowNs[_open] += t1 - t0;
}

bool
Tracer::checkBalance() const
{
    // Children lie inside their parent and root-level siblings do not
    // overlap (each phase child of a phase is its only child).
    std::vector<std::int64_t> childNs(_spans.size(), 0);
    std::int64_t prevEnd = _spans[0].start;
    for (std::size_t i = 1; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= i)
            return false;
        const Span &p = _spans[static_cast<std::size_t>(s.parent)];
        if (s.start > s.end || s.start < p.start || s.end > p.end)
            return false;
        if (s.parent == 0) {
            if (s.start < prevEnd)
                return false;
            prevEnd = s.end;
        }
        childNs[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    // Self times sum to the root's duration.
    std::int64_t selfSum = 0;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const std::int64_t self =
            _spans[i].end - _spans[i].start - childNs[i];
        if (self < 0)
            return false;
        selfSum += self;
    }
    return selfSum == _spans[0].end - _spans[0].start;
}

void
Tracer::endOp()
{
    if (!_inOp)
        return;
    const std::int64_t t = nowNs();
    closePhase(t);
    _spans[0].end = t;
    const std::size_t phases = _spans.size();
    for (std::size_t i = 1; i < phases; ++i) {
        if (_shadowNs[i] == 0)
            continue;
        _spans.push_back(Span{SpanKind::Shadow,
                              static_cast<std::int32_t>(i), _op,
                              _shadowFirst[i],
                              _shadowFirst[i] + _shadowNs[i]});
    }

    if (!checkBalance())
        ++_totals.balanceViolations;
    std::vector<std::int64_t> childNs(_spans.size(), 0);
    for (std::size_t i = 1; i < _spans.size(); ++i)
        childNs[static_cast<std::size_t>(_spans[i].parent)] +=
            _spans[i].end - _spans[i].start;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const std::size_t k = static_cast<std::size_t>(_spans[i].kind);
        _totals.selfNs[k] +=
            _spans[i].end - _spans[i].start - childNs[i];
    }

    if (_op < kRetainOps) {
        const std::int32_t base =
            static_cast<std::int32_t>(_retained.size());
        for (Span s : _spans) {
            if (s.parent >= 0)
                s.parent += base;
            _retained.push_back(s);
        }
    }
    _inOp = false;
}

namespace {

template <typename F>
void
timedCall(Tracer *tracer, F &&f)
{
    const std::int64_t t0 = nowNs();
    f();
    tracer->policyTime(t0, nowNs());
}

} // namespace

void
ProbePolicy::beginPathWrite(LeafLabel leaf)
{
    ++_counts.beginWrites;
    if (!timing())
        return _inner->beginPathWrite(leaf);
    timedCall(_tracer, [&] { _inner->beginPathWrite(leaf); });
}

void
ProbePolicy::onBlockPlaced(const PlacedBlock &placed)
{
    ++_counts.placed;
    if (!timing())
        return _inner->onBlockPlaced(placed);
    timedCall(_tracer, [&] { _inner->onBlockPlaced(placed); });
}

void
ProbePolicy::offerStashShadow(Addr addr, LeafLabel leaf,
                              std::uint32_t version, unsigned rearLevel,
                              unsigned maxLevel)
{
    ++_counts.offers;
    if (!timing())
        return _inner->offerStashShadow(addr, leaf, version, rearLevel,
                                        maxLevel);
    timedCall(_tracer, [&] {
        _inner->offerStashShadow(addr, leaf, version, rearLevel,
                                 maxLevel);
    });
}

std::optional<ShadowChoice>
ProbePolicy::selectShadow(unsigned level)
{
    ++_counts.selectCalls;
    std::optional<ShadowChoice> choice;
    if (!timing()) {
        choice = _inner->selectShadow(level);
    } else {
        const std::int64_t t0 = nowNs();
        _tracer->mark(Tracer::Mark::SelectEnter, t0);
        choice = _inner->selectShadow(level);
        const std::int64_t t1 = nowNs();
        _tracer->policyTime(t0, t1);
        _tracer->mark(Tracer::Mark::SelectExit, t1);
    }
    if (choice)
        ++_counts.selectHits;
    return choice;
}

void
ProbePolicy::endPathWrite()
{
    ++_counts.endWrites;
    if (!timing())
        return _inner->endPathWrite();
    _tracer->mark(Tracer::Mark::EndWrite, nowNs());
    timedCall(_tracer, [&] { _inner->endPathWrite(); });
}

void
ProbePolicy::onLlcMiss(Addr addr)
{
    ++_counts.llcMisses;
    if (!timing())
        return _inner->onLlcMiss(addr);
    _tracer->mark(Tracer::Mark::Entry, nowNs());
    timedCall(_tracer, [&] { _inner->onLlcMiss(addr); });
}

void
ProbePolicy::onRequestClassified(bool wasDummy)
{
    if (wasDummy)
        ++_counts.classifiedDummy;
    else
        ++_counts.classifiedReal;
    if (!timing())
        return _inner->onRequestClassified(wasDummy);
    if (!wasDummy)
        _tracer->mark(Tracer::Mark::Classified, nowNs());
    timedCall(_tracer, [&] { _inner->onRequestClassified(wasDummy); });
}

unsigned
ProbePolicy::partitionLevel() const
{
    ++_counts.partitionLevel;
    return _inner->partitionLevel();
}

std::uint32_t
ProbePolicy::hotnessOf(Addr addr) const
{
    ++_counts.hotness;
    return _inner->hotnessOf(addr);
}

void
ProbeSink::onPathAccess(LeafLabel leaf, bool isWrite)
{
    // FNV-1a over 64-bit words: one word per event.
    _hash = (_hash ^ ((leaf << 1) | (isWrite ? 1u : 0u))) *
            0x100000001b3ULL;
    ++_events;
    if (_tracer && _tracer->inOp())
        _tracer->mark(isWrite ? Tracer::Mark::WriteHook
                              : Tracer::Mark::ReadHook,
                      nowNs());
}

bool
writeSpans(const std::string &path, const std::string &workload,
           const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t epoch = spans.empty() ? 0 : spans.front().start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"op\": %u, \"id\": %zu, "
                     "\"parent\": %d, \"name\": \"%s\", "
                     "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                     workload.c_str(), s.op, i, s.parent,
                     spanName(s.kind),
                     static_cast<long long>(s.start - epoch),
                     static_cast<long long>(s.end - epoch));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
