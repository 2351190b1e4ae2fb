#include "sim/Controller.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <type_traits>

#include "common/Errors.hh"
#include "common/Logging.hh"
#include "security/InvariantChecker.hh"

namespace sboram {

Controller::Controller(const SystemConfig &cfg, FrontEnd front,
                       std::uint64_t fingerprint)
    : _dram(SystemConfig::dramTiming, SystemConfig::dramGeometry),
      _oram(cfg.oram, _dram,
            cfg.scheme == Scheme::Shadow
                ? std::make_unique<ShadowPolicy>(cfg.shadow,
                                                 cfg.oram.deriveLevels())
                : nullptr),
      _flightLabel(cfg.obs.label), _tp(cfg.timingProtection),
      _virtualDummies(cfg.virtualDummies),
      _watchdogInterval(cfg.watchdogInterval),
      _interval(cfg.tpInterval)
{
    if (_interval == 0) {
        // Auto-size from the path-read latency: under TP, one slot per
        // average request service time (path read plus the amortised
        // eviction read+write).
        const Cycles path = _oram.estimatePathReadLatency();
        _interval = _tp ? path + 2 * path / cfg.oram.evictionRate : path;
    }
    SB_ASSERT(_interval > 0, "the issue port needs a positive interval");
    if (cfg.scheme == Scheme::Shadow)
        _shadowPolicy = static_cast<ShadowPolicy *>(&_oram.policy());
    _oram.setFlightRecorder(&_flight);
    if (_flightLabel.empty()) {
        char buf[24];
        std::snprintf(buf, sizeof(buf),
                      front == FrontEnd::Batch ? "sys-%016llx"
                                               : "svc-%016llx",
                      static_cast<unsigned long long>(fingerprint));
        _flightLabel = buf;
    }
}

AccessResult
Controller::issue(Addr addr, Op op, Cycles issueTime)
{
    if (_watchdogInterval && ++_sinceWatchdog >= _watchdogInterval) {
        _sinceWatchdog = 0;
        enforceInvariants(_oram, _oram.stats().requests);
    }
    if (_oram.wouldHitStash(addr, op))
        return _oram.access(addr, op, issueTime);

    Cycles start = issueTime;
    if (_tp) {
        // Fire a dummy in every elapsed slot, then place this request
        // on the next slot boundary.
        for (; _nextSlot < issueTime; _nextSlot += _interval)
            _oram.dummyAccess(_nextSlot);
        start = _nextSlot;
        _nextSlot += _interval;
    } else if (_virtualDummies && _lastComplete != 0 &&
               issueTime > _lastComplete + _interval) {
        // No timing protection: let the dynamic-partitioning DRI
        // counter see long idle gaps as if they were dummies.
        const std::uint64_t n = std::min<std::uint64_t>(
            (issueTime - _lastComplete) / _interval, 4);
        for (std::uint64_t i = 0; i < n; ++i)
            _oram.policy().onRequestClassified(true);
    }
    const AccessResult r = _oram.access(addr, op, start);
    _dataBusy += r.completeAt - r.start;
    _lastComplete = r.completeAt;
    return r;
}

void
Controller::panicFlush() const
{
    const std::string dump = _flight.renderJson(_flightLabel);
    obs::publishFlightDump(_flightLabel, dump);
    obs::notePanicFlight(dump);
}

std::string
Controller::publishFlight() const
{
    std::string dump = _flight.renderJson(_flightLabel);
    // Empty rings stay out of the artifact: most runs never touch
    // the recovery ladder.
    if (!_flight.empty())
        obs::publishFlightDump(_flightLabel, dump);
    return dump;
}

template <class Self, class Io>
void
Controller::sections(Self &self, Io &io)
{
    // The port's fifth word is the ORAM's dummy count, checked against
    // kSectionOram once both have loaded.
    std::uint64_t dummies = self._oram.stats().dummyAccesses;
    io.section(ckpt::kSectionPort, [&](auto &ar) {
        ar.u64(self._sinceWatchdog);
        ar.u64(self._nextSlot);
        ar.u64(self._lastComplete);
        ar.u64(self._dataBusy);
        ar.u64(dummies);
    });
    io.section(ckpt::kSectionOram, [&](auto &ar) {
        ar.nested(self._oram);
        if constexpr (std::remove_reference_t<decltype(ar)>::kLoading)
            if (dummies != self._oram.stats().dummyAccesses)
                throw CkptMismatchError("the port and ORAM sections "
                                        "disagree on the dummy access count");
    });
    if (self._shadowPolicy != nullptr)
        io.section(ckpt::kSectionPolicy,
                   [&](auto &ar) { ar.nested(*self._shadowPolicy); });
    io.section(ckpt::kSectionDram, [&](auto &ar) { ar.nested(self._dram); });
}

template void Controller::sections(const Controller &,
                                   ckpt::SnapshotWriter &);
template void Controller::sections(Controller &, ckpt::SnapshotWriter &);
template void Controller::sections(Controller &, ckpt::SectionLoader &);

} // namespace sboram
