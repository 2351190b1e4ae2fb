#include "sim/Controller.hh"

#include <cstdio>
#include <memory>

namespace sboram {

Controller::Controller(const SystemConfig &cfg, FrontEnd front,
                       std::uint64_t fingerprint)
    : _dram(cfg.dramTiming, cfg.dramGeometry),
      _oram(cfg.oram, _dram,
            cfg.scheme == Scheme::Shadow
                ? std::make_unique<ShadowPolicy>(cfg.shadow,
                                                 cfg.oram.deriveLevels())
                : nullptr),
      _flightLabel(cfg.obs.label)
{
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

void
Controller::save(ckpt::SnapshotWriter &writer) const
{
    _oram.saveState(writer.section(ckpt::kSectionOram));
    if (_shadowPolicy != nullptr)
        _shadowPolicy->saveState(writer.section(ckpt::kSectionPolicy));
    _dram.saveState(writer.section(ckpt::kSectionDram));
}

void
Controller::restore(const ckpt::SnapshotReader &reader)
{
    auto dOram = reader.section(ckpt::kSectionOram);
    auto dDram = reader.section(ckpt::kSectionDram);
    if (_shadowPolicy != nullptr) {
        // The last fetch, so loading right after it still mutates
        // nothing before every section is known present.
        auto dPol = reader.section(ckpt::kSectionPolicy);
        _shadowPolicy->loadState(dPol);
    }
    _oram.loadState(dOram);
    _dram.loadState(dDram);
}

} // namespace sboram
