/**
 * @file
 * Deterministic SLO monitor for the service pipeline (DESIGN.md §13).
 *
 * An SLO is declared as "at least goodPermille of requests resolve
 * within latencyBound virtual cycles", evaluated over fixed-size
 * windows of resolved requests (completions and sheds both count —
 * a shed is by definition not good).  Windows are counted in requests
 * rather than wall time so the monitor is a pure function of the
 * request stream: the same config produces the same windows, breaches
 * and burn rates on any host, any thread count, and across
 * kill-and-resume (state travels in kSectionReqObs).
 *
 * The burn rate is the classic error-budget ratio in integer milli
 * units: burnMilli = 1000 means the window consumed its error budget
 * exactly; 2000 means twice as fast.  All math is integer — no floats
 * — so there is no platform-dependent rounding.
 */

#ifndef SBORAM_OBS_SLO_HH
#define SBORAM_OBS_SLO_HH

#include <cstdint>

#include "ckpt/Serde.hh"
#include "common/Types.hh"

namespace sboram {
namespace obs {

/** Declarative latency/availability objective. */
struct SloConfig
{
    /** Latency objective in virtual cycles; 0 disables the monitor. */
    Cycles latencyBound = 0;
    /** Objective: >= this many good requests per 1000 resolved. */
    std::uint32_t goodPermille = 990;
    /** Window size in resolved requests. */
    std::uint32_t windowRequests = 256;
    /** A window burning the budget faster than this (milli rate)
     *  counts as a breach and emits a burn event. */
    std::uint32_t burnMilliThreshold = 2000;
};

/**
 * Tracks one SloConfig over the resolved-request stream.  The owner
 * calls onResolved() per completion/shed and reacts to the returned
 * burn rate; breach counting lives here so resume restores it.
 */
class SloMonitor
{
  public:
    explicit SloMonitor(const SloConfig &cfg) : _cfg(cfg) {}

    bool enabled() const { return _cfg.latencyBound != 0; }

    /**
     * Account one resolved request.  Returns the window's burn rate
     * (milli) when this request closes a window, -1 otherwise.
     */
    std::int64_t
    onResolved(bool good)
    {
        if (!enabled())
            return -1;
        ++_inWindow;
        if (!good)
            ++_badInWindow;
        if (_inWindow < _cfg.windowRequests)
            return -1;
        return closeWindow();
    }

    /** A completion is good iff it met the latency bound. */
    bool
    isGood(Cycles latency) const
    {
        return latency <= _cfg.latencyBound;
    }

    /**
     * Close a trailing partial window at end of run.  Returns its
     * burn rate, or -1 when the window is empty or the monitor is
     * off.  Partial windows use their own size as the denominator so
     * a short run still reports a meaningful rate.
     */
    std::int64_t
    flush()
    {
        if (!enabled() || _inWindow == 0)
            return -1;
        return closeWindow();
    }

    std::uint64_t windows() const { return _windows; }
    std::uint64_t breaches() const { return _breaches; }
    std::uint64_t worstBurnMilli() const { return _worstBurnMilli; }

    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void
    serde(Self &self, Ar &ar)
    {
        ar.u64(self._inWindow);
        ar.u64(self._badInWindow);
        ar.u64(self._windows);
        ar.u64(self._breaches);
        ar.u64(self._worstBurnMilli);
    }

    std::int64_t
    closeWindow()
    {
        // Error budget of the window: the bad requests the objective
        // tolerates.  burnMilli = bad/budget in milli units; a zero
        // budget (objective = 1000‰) burns infinitely fast the moment
        // anything is bad, which saturates to a large finite rate.
        const std::uint64_t budgetPermille =
            _cfg.goodPermille >= 1000
                ? 0
                : 1000 - _cfg.goodPermille;
        std::uint64_t burnMilli;
        if (_badInWindow == 0) {
            burnMilli = 0;
        } else if (budgetPermille == 0) {
            burnMilli = 1000000;
        } else {
            burnMilli = _badInWindow * 1000000 /
                        (_inWindow * budgetPermille);
        }
        ++_windows;
        if (burnMilli > _worstBurnMilli)
            _worstBurnMilli = burnMilli;
        const bool breach = burnMilli >= _cfg.burnMilliThreshold;
        if (breach)
            ++_breaches;
        _inWindow = 0;
        _badInWindow = 0;
        return breach ? static_cast<std::int64_t>(burnMilli) : -1;
    }

    SloConfig _cfg;
    std::uint64_t _inWindow = 0;
    std::uint64_t _badInWindow = 0;
    std::uint64_t _windows = 0;
    std::uint64_t _breaches = 0;
    std::uint64_t _worstBurnMilli = 0;
};

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_SLO_HH
