#include "RecoveryManager.hh"

#include "common/Errors.hh"
#include "common/Logging.hh"

namespace sboram {

RecoveryManager::RecoveryManager(const HealthConfig &cfg,
                                 std::uint64_t numSlots)
    : _cfg(cfg)
{
    if (_cfg.backpressureEnabled())
        SB_ASSERT(_cfg.stashLowWatermark < _cfg.stashHighWatermark,
                  "stash watermarks must be hysteretic (low %u < high %u)",
                  _cfg.stashLowWatermark, _cfg.stashHighWatermark);
    if (_cfg.quarantineEnabled()) {
        _failures.assign(numSlots, 0);
        _quarantined.assign(numSlots, 0);
    }
}

bool
RecoveryManager::recordSlotFailure(std::uint64_t slotIdx)
{
    if (!_cfg.quarantineEnabled())
        return false;
    SB_ASSERT(slotIdx < _failures.size(),
              "slot %llu outside failure table (%zu slots)",
              static_cast<unsigned long long>(slotIdx),
              _failures.size());
    if (_quarantined[slotIdx])
        return false;
    if (++_failures[slotIdx] < _cfg.quarantineThreshold)
        return false;
    _quarantined[slotIdx] = 1;
    ++_quarantinedCount;
    return true;
}

int
RecoveryManager::noteServicePressure(bool active)
{
    if (active == _servicePressure)
        return 0;
    _servicePressure = active;
    return active ? 1 : -1;
}

int
RecoveryManager::noteStashOccupancy(std::uint64_t realCount)
{
    if (!_cfg.backpressureEnabled())
        return 0;
    if (!_degraded && realCount >= _cfg.stashHighWatermark) {
        _degraded = true;
        return 1;
    }
    if (_degraded && realCount <= _cfg.stashLowWatermark) {
        _degraded = false;
        return -1;
    }
    return 0;
}

template <class Self, class Ar>
void
RecoveryManager::serde(Self &self, Ar &ar)
{
    if constexpr (Ar::kLoading) {
        if (self._cfg.quarantineEnabled()) {
            self._failures.assign(self._failures.size(), 0);
            self._quarantined.assign(self._quarantined.size(), 0);
        }
    }
    // Sparse encoding in ascending slot order: the table is sized for
    // the whole tree but only storm-beaten slots have nonzero counts,
    // and index order keeps snapshot bytes deterministic.
    std::uint64_t nonzero = 0;
    for (std::uint32_t count : self._failures)
        if (count != 0)
            ++nonzero;
    ar.u64(nonzero);
    std::uint64_t idx = 0;
    for (std::uint64_t k = 0; k < nonzero; ++k, ++idx) {
        if constexpr (!Ar::kLoading)
            while (self._failures[idx] == 0)
                ++idx;  // Skip to the next storm-beaten slot.
        ar.u64(idx);
        if constexpr (Ar::kLoading)
            if (idx >= self._failures.size())
                throw CkptMismatchError(
                    "snapshot quarantine table references slot " +
                    std::to_string(idx) +
                    " outside the configured tree (" +
                    std::to_string(self._failures.size()) + " slots)");
        ar.u32(self._failures[idx]);
        ar.u8(self._quarantined[idx]);
    }
    ar.u8As(self._degraded);
    ar.u8As(self._servicePressure);
    if constexpr (Ar::kLoading) {
        // Derived from the table, not serialized.
        self._quarantinedCount = 0;
        for (std::uint8_t flag : self._quarantined)
            if (flag != 0)
                ++self._quarantinedCount;
    }
}

template void RecoveryManager::serde(const RecoveryManager &,
                                     ckpt::Serializer &);
template void RecoveryManager::serde(RecoveryManager &, ckpt::Deserializer &);

} // namespace sboram
