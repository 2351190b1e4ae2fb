/**
 * @file
 * Outside-in instrumentation for the benchmark.
 *
 * Nothing here changes the simulator.  The benchmark observes an
 * access through two interfaces the controller already exposes:
 *
 *  - ProbePolicy, a forwarding DuplicationPolicy decorator installed
 *    in place of the real policy.  TinyOram also installs its policy
 *    as the stash hotness oracle, so victim scans pass through it too;
 *  - ProbeSink, a TraceSink that hashes the externally visible leaf
 *    sequence and marks path-read and path-write boundaries.
 *
 * With tracing on, both report boundaries to a Tracer, which turns
 * them into spans (name, start, end, parent, op id).  Spans of the
 * current op live in a small buffer; at the end of each op the tracer
 * checks that they nest, folds them into per-layer totals and keeps
 * the first few thousand ops for the span file written at exit.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oram/DuplicationPolicy.hh"
#include "oram/TraceSink.hh"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Span names; the layer is the part before the dot. */
enum class SpanKind : std::uint8_t
{
    Access,        ///< Root: one TinyOram::access call.
    ProbePosmap,   ///< Access entry to the first path-read hook.
    PathRead,      ///< Read hook to onRequestClassified.
    EvictRead,     ///< Eviction read hook to the path-write hook.
    WritePrepare,  ///< Write hook to the first selectShadow.
    WriteFill,     ///< First to last selectShadow (dummy-slot pass).
    WriteFinish,   ///< Last selectShadow to endPathWrite.
    MemWrite,      ///< endPathWrite to the next boundary.
    Shadow,        ///< Forwarded policy calls inside the parent.
    Count,
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::Count);

const char *spanName(SpanKind kind);

struct Span
{
    SpanKind kind = SpanKind::Access;
    std::int32_t parent = -1;  ///< Index within the op; -1 for root.
    std::uint32_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/** Every decorator hook, counted in traced and untraced passes. */
struct HookCounts
{
    std::uint64_t llcMisses = 0;
    std::uint64_t beginWrites = 0;
    std::uint64_t placed = 0;
    std::uint64_t offers = 0;
    std::uint64_t selectCalls = 0;
    std::uint64_t selectHits = 0;
    std::uint64_t endWrites = 0;
    std::uint64_t classifiedReal = 0;
    std::uint64_t classifiedDummy = 0;
    std::uint64_t hotness = 0;
    std::uint64_t partitionLevel = 0;
};

/** Per-layer totals folded from the spans of finished ops. */
struct SpanTotals
{
    std::array<std::int64_t, kSpanKinds> selfNs{};
    /** Ops whose spans did not nest or whose self times did not sum
     *  to the root duration. */
    std::uint64_t balanceViolations = 0;
};

/**
 * Turns boundary marks into spans.  Marks come from ProbePolicy and
 * ProbeSink; the harness brackets each access with beginOp/endOp.
 */
class Tracer
{
  public:
    enum class Mark : std::uint8_t
    {
        Entry,        ///< onLlcMiss.
        ReadHook,     ///< Sink: path read.
        Classified,   ///< onRequestClassified(false).
        WriteHook,    ///< Sink: path write.
        SelectEnter,  ///< selectShadow entered.
        SelectExit,   ///< selectShadow returned.
        EndWrite,     ///< endPathWrite.
    };

    /** Ops whose spans are kept for the span file. */
    static constexpr std::uint32_t kRetainOps = 2000;

    bool inOp() const { return _inOp; }

    void beginOp(std::uint32_t op);
    void endOp();
    void mark(Mark m, std::int64_t t);
    /** A forwarded policy call ran over [t0, t1]. */
    void policyTime(std::int64_t t0, std::int64_t t1);

    const SpanTotals &totals() const { return _totals; }
    const std::vector<Span> &retained() const { return _retained; }

  private:
    void openPhase(SpanKind kind, std::int64_t t);
    void closePhase(std::int64_t t);
    bool checkBalance() const;

    bool _inOp = false;
    std::uint32_t _op = 0;
    std::vector<Span> _spans;  ///< Current op; [0] is the root.
    /** Forwarded-call time and first call start, per span index. */
    std::vector<std::int64_t> _shadowNs;
    std::vector<std::int64_t> _shadowFirst;
    std::int32_t _open = -1;
    std::int64_t _lastSelectExit = 0;
    SpanTotals _totals;
    std::vector<Span> _retained;
};

/**
 * Forwarding decorator around the real duplication policy.  Every
 * hook is counted; with a tracer attached, boundary hooks also mark
 * spans and every forwarded call except hotnessOf is timed (hotnessOf
 * runs inside stash victim scans and is only counted).
 */
class ProbePolicy : public sboram::DuplicationPolicy
{
  public:
    ProbePolicy(std::unique_ptr<sboram::DuplicationPolicy> inner,
                Tracer *tracer)
        : _inner(std::move(inner)), _tracer(tracer)
    {
    }

    void beginPathWrite(sboram::LeafLabel leaf) override;
    void onBlockPlaced(const sboram::PlacedBlock &placed) override;
    void offerStashShadow(sboram::Addr addr, sboram::LeafLabel leaf,
                          std::uint32_t version, unsigned rearLevel,
                          unsigned maxLevel) override;
    std::optional<sboram::ShadowChoice>
    selectShadow(unsigned level) override;
    void endPathWrite() override;
    void onLlcMiss(sboram::Addr addr) override;
    void onRequestClassified(bool wasDummy) override;
    unsigned partitionLevel() const override;
    std::uint32_t hotnessOf(sboram::Addr addr) const override;

    const HookCounts &counts() const { return _counts; }

  private:
    bool timing() const { return _tracer && _tracer->inOp(); }

    std::unique_ptr<sboram::DuplicationPolicy> _inner;
    Tracer *_tracer;
    mutable HookCounts _counts;
};

/**
 * Trace sink: FNV-1a over the (leaf, direction) sequence, plus
 * boundary marks when a tracer is attached and an op is open.
 */
class ProbeSink : public sboram::TraceSink
{
  public:
    explicit ProbeSink(Tracer *tracer = nullptr) : _tracer(tracer) {}

    void onPathAccess(sboram::LeafLabel leaf, bool isWrite) override;

    std::uint64_t hash() const { return _hash; }
    std::uint64_t events() const { return _events; }

  private:
    Tracer *_tracer;
    std::uint64_t _hash = 0xcbf29ce484222325ULL;
    std::uint64_t _events = 0;
};

/** Write retained spans as JSON lines; false when the file fails. */
bool writeSpans(const std::string &path, const std::string &workload,
                const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
