#include "workload/Arrivals.hh"

#include <algorithm>
#include <cmath>

namespace sboram {

ArrivalGenerator::ArrivalGenerator(const ArrivalConfig &cfg)
    : _cfg(cfg), _rng(cfg.seed),
      _zipf(std::max<std::uint64_t>(1, cfg.addressBlocks),
            cfg.zipfAlpha)
{
}

double
ArrivalGenerator::rateScale(Cycles at) const
{
    switch (_cfg.kind) {
    case ArrivalKind::Poisson:
        return 1.0;
    case ArrivalKind::Bursty: {
        const Cycles period = _cfg.burstOnCycles + _cfg.burstOffCycles;
        if (period == 0)
            return 1.0;
        return (at % period) < _cfg.burstOnCycles ? _cfg.burstFactor
                                                  : 1.0;
    }
    case ArrivalKind::Diurnal: {
        if (_cfg.diurnalPeriodCycles == 0)
            return 1.0;
        const double phase =
            static_cast<double>(at % _cfg.diurnalPeriodCycles) /
            static_cast<double>(_cfg.diurnalPeriodCycles);
        const double swing =
            0.5 * (1.0 + std::cos(2.0 * M_PI * phase));
        return _cfg.diurnalTroughFactor +
               (1.0 - _cfg.diurnalTroughFactor) * swing;
    }
    }
    return 1.0;
}

ArrivalRecord
ArrivalGenerator::next()
{
    // Fixed draw order: gap, client, address, write flag.
    const double u = _rng.uniform();
    const double scale = std::max(rateScale(_clock), 1e-9);
    const double gap =
        -std::log1p(-u) * _cfg.meanGapCycles / scale;
    const Cycles step =
        gap < 1.0 ? 1 : static_cast<Cycles>(gap);
    _clock += step;

    ArrivalRecord rec;
    rec.arrival = _clock;
    rec.client = _rng.below(std::max<std::uint64_t>(1, _cfg.clients));
    rec.addr = _zipf.sample(_rng);
    rec.isWrite = _rng.chance(_cfg.writeFraction);
    ++_emitted;
    return rec;
}

template <class Self, class Ar>
void
ArrivalGenerator::serde(Self &self, Ar &ar)
{
    std::uint64_t words[4];
    self._rng.stateWords(words);
    for (std::uint64_t &w : words)
        ar.u64(w);
    ar.u64(self._clock);
    ar.u64(self._emitted);
    if constexpr (Ar::kLoading)
        self._rng.setStateWords(words);
}

template void ArrivalGenerator::serde(const ArrivalGenerator &,
                                      ckpt::Serializer &);
template void ArrivalGenerator::serde(ArrivalGenerator &,
                                      ckpt::Deserializer &);

void
fingerprintArrivals(ckpt::Serializer &out, const ArrivalConfig &cfg)
{
    out.u8(static_cast<std::uint8_t>(cfg.kind));
    out.f64(cfg.meanGapCycles);
    out.u64(cfg.clients);
    out.u64(cfg.addressBlocks);
    out.f64(cfg.zipfAlpha);
    out.f64(cfg.writeFraction);
    out.f64(cfg.burstFactor);
    out.u64(cfg.burstOnCycles);
    out.u64(cfg.burstOffCycles);
    out.u64(cfg.diurnalPeriodCycles);
    out.f64(cfg.diurnalTroughFactor);
    out.u64(cfg.seed);
}

} // namespace sboram
