#include "FaultInjector.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/Logging.hh"

namespace sboram {

namespace {

/** Distinct PRF streams so one access's draws are independent. */
constexpr std::uint64_t kStreamGate = 0x6761746500000000ULL;
constexpr std::uint64_t kStreamKind = 0x6b696e6400000000ULL;
constexpr std::uint64_t kStreamTarget = 0x7461726700000000ULL;
constexpr std::uint64_t kStreamBit = 0x62697400'00000000ULL;
constexpr std::uint64_t kStreamGarble = 0x67617262'00000000ULL;

bool
envDouble(const char *name, double &out)
{
    // sblint:allow-next-line(ambient-nondeterminism): operator config knob read once at startup, not simulated randomness
    const char *v = std::getenv(name);
    if (!v)
        return false;
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0' || errno == ERANGE ||
        !(parsed >= 0.0) || parsed > 1.0) {
        SB_WARN("ignoring invalid %s='%s' (want a rate in [0, 1])",
                name, v);
        return false;
    }
    out = parsed;
    return true;
}

bool
envU64(const char *name, std::uint64_t &out)
{
    // sblint:allow-next-line(ambient-nondeterminism): operator config knob read once at startup, not simulated randomness
    const char *v = std::getenv(name);
    if (!v)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE) {
        SB_WARN("ignoring invalid %s='%s' (want an integer)", name, v);
        return false;
    }
    out = parsed;
    return true;
}

} // namespace

FaultConfig
FaultConfig::fromEnv(FaultConfig base)
{
    envDouble("SB_FAULT_RATE", base.rate);
    std::uint64_t seed = base.seed;
    if (envU64("SB_FAULT_SEED", seed))
        base.seed = seed;

    // sblint:allow-next-line(ambient-nondeterminism): operator config knob read once at startup, not simulated randomness
    if (const char *kinds = std::getenv("SB_FAULT_KINDS")) {
        base.bitFlips = std::strstr(kinds, "flip") != nullptr;
        base.droppedWrites = std::strstr(kinds, "drop") != nullptr;
        base.stuckBits = std::strstr(kinds, "stuck") != nullptr;
        if (!base.bitFlips && !base.droppedWrites && !base.stuckBits) {
            SB_WARN("SB_FAULT_KINDS='%s' names no known kind "
                    "(flip, drop, stuck); enabling all", kinds);
            base.bitFlips = base.droppedWrites = base.stuckBits = true;
        }
    }

    // sblint:allow-next-line(ambient-nondeterminism): operator config knob read once at startup, not simulated randomness
    if (const char *p = std::getenv("SB_FAULT_UNRECOVERABLE")) {
        if (std::strcmp(p, "panic") == 0)
            base.onUnrecoverable = UnrecoverablePolicy::Panic;
        else if (std::strcmp(p, "throw") == 0)
            base.onUnrecoverable = UnrecoverablePolicy::Throw;
        else if (std::strcmp(p, "count") == 0)
            base.onUnrecoverable = UnrecoverablePolicy::Count;
        else
            SB_WARN("ignoring invalid SB_FAULT_UNRECOVERABLE='%s' "
                    "(want panic|throw|count)", p);
    }

    std::uint64_t v = 0;
    if (envU64("SB_FAULT_BURST_EVERY", v))
        base.burstEvery = static_cast<unsigned>(v);
    if (envU64("SB_FAULT_BURST_LEN", v))
        base.burstLen = static_cast<unsigned>(v);
    if (envU64("SB_FAULT_SUBTREE_LEVELS", v))
        base.subtreeLevels = static_cast<unsigned>(v);
    if (envU64("SB_FAULT_SUBTREE_PREFIX", v))
        base.subtreePrefix = v;
    return base;
}

FaultInjector::FaultInjector(const FaultConfig &cfg) : _cfg(cfg)
{
    SB_ASSERT(cfg.rate >= 0.0 && cfg.rate <= 1.0,
              "fault rate %f outside [0, 1]", cfg.rate);
    SB_ASSERT(cfg.burstEvery == 0 || cfg.burstLen <= cfg.burstEvery,
              "burst length %u exceeds burst period %u",
              cfg.burstLen, cfg.burstEvery);
    rekey();
}

void
FaultInjector::rekey()
{
    // Each reseed generation derives an independent key from the same
    // configured seed (generation 0 matches the historical
    // derivation), so a rolled-back replay faces a fresh — but still
    // fully deterministic and resumable — fault realization.
    const std::uint64_t s =
        _cfg.seed + 0x9e3779b97f4a7c15ULL * std::uint64_t(_reseeds);
    _key.lo = s * 0x9e3779b97f4a7c15ULL + 0xfa17ULL;
    _key.hi = s ^ 0x5bd1e9955bd1e995ULL;
}

void
FaultInjector::reseedTo(std::uint32_t minGeneration)
{
    _reseeds = std::max(_reseeds + 1, minGeneration);
    rekey();
    // Stuck cells model a persistent realization of the old storm;
    // the rollback restored pre-fault memory, so disarm them.
    _stuck.clear();
}

bool
FaultInjector::shouldInject(std::uint64_t accessCount) const
{
    if (!_cfg.enabled())
        return false;
    if (_cfg.burstEvery > 0 &&
        accessCount % _cfg.burstEvery >= _cfg.burstLen)
        return false;
    // Same 53-bit uniform mapping as Rng::uniform.
    const double u =
        (draw(accessCount, kStreamGate) >> 11) * 0x1.0p-53;
    return u < _cfg.rate;
}

bool
FaultInjector::targetsLeaf(std::uint64_t leaf,
                           unsigned leafLevel) const
{
    if (_cfg.subtreeLevels == 0)
        return true;
    if (_cfg.subtreeLevels >= leafLevel)
        return leaf == _cfg.subtreePrefix;
    return (leaf >> (leafLevel - _cfg.subtreeLevels)) ==
           _cfg.subtreePrefix;
}

std::uint64_t
FaultInjector::pickTarget(std::uint64_t accessCount,
                          std::uint64_t choices) const
{
    SB_ASSERT(choices > 0, "no fault targets to pick from");
    return draw(accessCount, kStreamTarget) % choices;
}

FaultKind
FaultInjector::pickKind(std::uint64_t accessCount) const
{
    FaultKind enabled[3];
    unsigned n = 0;
    if (_cfg.bitFlips)
        enabled[n++] = FaultKind::BitFlip;
    if (_cfg.droppedWrites)
        enabled[n++] = FaultKind::DroppedWrite;
    if (_cfg.stuckBits)
        enabled[n++] = FaultKind::StuckBit;
    SB_ASSERT(n > 0, "fault injection enabled with no fault kinds");
    return enabled[draw(accessCount, kStreamKind) % n];
}

void
FaultInjector::corrupt(CipherRef ct, std::uint64_t accessCount,
                       FaultKind kind, std::uint64_t slotIdx)
{
    SB_ASSERT(ct.words != 0, "corrupting an empty ciphertext");
    const unsigned bits = static_cast<unsigned>(ct.words) * 64;
    const unsigned bit = static_cast<unsigned>(
        draw(accessCount, kStreamBit) % bits);

    switch (kind) {
    case FaultKind::BitFlip:
        ct.lanes[bit / 64] ^= std::uint64_t(1) << (bit % 64);
        ++_stats.bitFlips;
        break;
    case FaultKind::DroppedWrite:
        // The fresh bucket encryption never reached DRAM: the
        // read-back mixes stale cells with the new nonce/tag, so
        // every lane is inconsistent.
        for (std::uint64_t i = 0; i < ct.words; ++i)
            ct.lanes[i] ^= draw(accessCount, kStreamGarble + i);
        ++_stats.droppedWrites;
        break;
    case FaultKind::StuckBit:
        ct.lanes[bit / 64] ^= std::uint64_t(1) << (bit % 64);
        _stuck[slotIdx] = StuckCell{bit, _cfg.stuckWrites};
        ++_stats.stuckBits;
        break;
    }
}

bool
FaultInjector::onSlotRewritten(std::uint64_t slotIdx, CipherRef ct)
{
    if (_stuck.empty())
        return false;
    auto it = _stuck.find(slotIdx);
    if (it == _stuck.end())
        return false;
    StuckCell &cell = it->second;
    if (cell.remaining == 0 ||
        cell.bit >= ct.words * 64) {
        _stuck.erase(it);
        return false;
    }
    ct.lanes[cell.bit / 64] ^= std::uint64_t(1) << (cell.bit % 64);
    ++_stats.stuckReapplied;
    if (--cell.remaining == 0)
        _stuck.erase(it);
    return true;
}

} // namespace sboram
