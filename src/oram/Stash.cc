#include "Stash.hh"

#include <algorithm>

namespace sboram {

void
Stash::enforceCapacity()
{
    // The stash is a fixed-size CAM: shadow entries are replaceable
    // and get displaced (oldest first) when the structure fills up;
    // real entries beyond the capacity are an overflow (counted by
    // trackOccupancy — functionally we keep them so the simulation
    // can proceed).
    while (_entries.size() > _capacity) {
        // Victim selection is a strict minimum over the (hotness,
        // seq) key and seq is unique, so the choice is identical for
        // any scan order.  Scanning the shadow side-list touches
        // exactly the displaceable entries — no hashing, no visits
        // to real entries.
        StashEntry *victim = nullptr;
        std::uint32_t coldest = ~std::uint32_t(0);
        std::uint64_t oldest = ~std::uint64_t(0);
        for (StashEntry *e : _shadows) {
            const std::uint32_t hot =
                _hotness ? _hotness->hotnessOf(e->addr) : 0;
            if (hot < coldest || (hot == coldest && e->seq < oldest)) {
                coldest = hot;
                oldest = e->seq;
                victim = e;
            }
        }
        if (victim == nullptr)
            break;  // Only real entries left; overflow accounting.
        removeShadow(victim);
        recyclePayload(*victim);
        _entries.erase(victim->addr);
    }
}

bool
Stash::insert(StashEntry entry)
{
    SB_ASSERT(entry.type != BlockType::Dummy,
              "dummy blocks are discarded, not stashed");
    entry.seq = _nextSeq++;

    auto it = _entries.find(entry.addr);
    if (it == _entries.end()) {
        if (entry.type == BlockType::Real)
            ++_realCount;
        const Addr addr = entry.addr;
        auto [pos, inserted] = _entries.emplace(addr, std::move(entry));
        (void)inserted;
        if (pos->second.isShadow())
            addShadow(&pos->second);
        enforceCapacity();
        trackOccupancy();
        return true;
    }

    StashEntry &existing = it->second;
    if (entry.type == BlockType::Shadow) {
        // Merge: a real copy wins; duplicate shadows collapse.
        if (existing.type == BlockType::Real) {
            ++_stats.mergesRealWins;
        } else {
            SB_ASSERT(existing.version == entry.version,
                      "divergent shadow versions for addr %llu "
                      "(%u vs %u)",
                      static_cast<unsigned long long>(entry.addr),
                      existing.version, entry.version);
            ++_stats.mergesShadowDup;
        }
        recyclePayload(entry);
        return false;
    }

    // Incoming real block.  A real copy can only meet a shadow here:
    // two real copies of one address never coexist (invariant 2).
    SB_ASSERT(existing.type == BlockType::Shadow,
              "two real copies of addr %llu",
              static_cast<unsigned long long>(entry.addr));
    SB_ASSERT(existing.version == entry.version,
              "stale shadow survived for addr %llu",
              static_cast<unsigned long long>(entry.addr));
    ++_stats.mergesRealWins;
    removeShadow(&existing);
    recyclePayload(existing);
    existing = std::move(entry);
    ++_realCount;
    trackOccupancy();
    return true;
}

const StashEntry *
Stash::find(Addr addr) const
{
    auto it = _entries.find(addr);
    return it == _entries.end() ? nullptr : &it->second;
}

StashEntry *
Stash::find(Addr addr)
{
    auto it = _entries.find(addr);
    return it == _entries.end() ? nullptr : &it->second;
}

void
Stash::remove(Addr addr)
{
    auto it = _entries.find(addr);
    SB_ASSERT(it != _entries.end(), "removing absent addr %llu",
              static_cast<unsigned long long>(addr));
    if (it->second.type == BlockType::Real)
        --_realCount;
    else
        removeShadow(&it->second);
    recyclePayload(it->second);
    _entries.erase(it);
}

void
Stash::dropShadowOf(Addr addr)
{
    auto it = _entries.find(addr);
    if (it != _entries.end() && it->second.type == BlockType::Shadow) {
        removeShadow(&it->second);
        recyclePayload(it->second);
        _entries.erase(it);
    }
}

void
Stash::trackOccupancy()
{
    if (_realCount > _stats.peakReal)
        _stats.peakReal = _realCount;
    if (_realCount > _capacity)
        ++_stats.overflowEvents;
}

template <class Self, class Ar>
void
Stash::serde(Self &self, Ar &ar)
{
    ar.u64(self._nextSeq);
    ar.u64(self._realCount);
    ar.u64(self._stats.peakReal);
    ar.u64(self._stats.overflowEvents);
    ar.u64(self._stats.mergesRealWins);
    ar.u64(self._stats.mergesShadowDup);
    // Entries travel in seq order, not map order: the hash map's
    // iteration order is an implementation detail that varies across
    // processes, and a snapshot must be byte-identical for identical
    // stash contents (generation diffing, resume bit-equality tests).
    std::vector<StashEntry> ordered;
    if constexpr (!Ar::kLoading) {
        ordered.reserve(self._entries.size());
        // sblint:allow-next-line(unordered-iteration): order canonicalised by the seq sort below
        for (const auto &kv : self._entries)
            ordered.push_back(kv.second);
        std::sort(ordered.begin(), ordered.end(),
                  [](const StashEntry &a, const StashEntry &b) {
                      return a.seq < b.seq;
                  });
    }
    ar.seq(ordered, [&](auto &e) { StashEntry::serde(e, ar); });
    if constexpr (Ar::kLoading) {
        // The shadow side-list is derived: rebuilt, never serialized.
        self._entries.clear();
        self._shadows.clear();
        for (StashEntry &e : ordered) {
            const Addr addr = e.addr;
            auto [pos, inserted] =
                self._entries.emplace(addr, std::move(e));
            (void)inserted;
            if (pos->second.isShadow())
                self.addShadow(&pos->second);
        }
    }
}

template void Stash::serde(const Stash &, ckpt::Serializer &);
template void Stash::serde(Stash &, ckpt::Deserializer &);

} // namespace sboram
