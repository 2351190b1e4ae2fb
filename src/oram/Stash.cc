#include "Stash.hh"

namespace sboram {

SB_HOT StashEntry *
Stash::displacementVictim()
{
    // The list is in seq order, so without an oracle the oldest
    // shadow is its head, and with one the first cold shadow (hotness
    // 0) is the (hotness, seq) minimum.  The cursor skips the prefix
    // already found hot.
    if (!_hotness)
        return _shadows.head;
    for (StashEntry *e = _victimCursor; e; e = e->next) {
        if (_hotness->hotnessOf(e->addr) == 0)
            return e;
        _victimCursor = e->next;
    }
    // Every shadow is hot, so each holds its own hot-cache entry and
    // there are at most as many as the cache has entries: take the
    // strict (hotness, seq) minimum over all of them.
    StashEntry *victim = nullptr;
    std::uint32_t coldest = ~std::uint32_t(0);
    for (StashEntry *e = _shadows.head; e; e = e->next) {
        const std::uint32_t hot = _hotness->hotnessOf(e->addr);
        if (hot < coldest) {
            coldest = hot;
            victim = e;
        }
    }
    return victim;
}

void
Stash::enforceCapacity()
{
    // The stash is a fixed-size CAM: shadow entries are replaceable
    // and get displaced (coldest, then oldest, first) when the
    // structure fills up; real entries beyond the capacity are an
    // overflow (counted by trackOccupancy — functionally we keep them
    // so the simulation can proceed).
    while (_entries.size() > _capacity) {
        StashEntry *victim = displacementVictim();
        if (victim == nullptr)
            break;  // Only real entries left; overflow accounting.
        unlink(victim);
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
        link(&pos->second);
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
    unlink(&existing);
    recyclePayload(existing);
    existing = std::move(entry);
    link(&existing);  // Real tail: its fresh seq is the largest.
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
    unlink(&it->second);
    recyclePayload(it->second);
    _entries.erase(it);
}

void
Stash::dropShadowOf(Addr addr)
{
    auto it = _entries.find(addr);
    if (it != _entries.end() && it->second.type == BlockType::Shadow) {
        unlink(&it->second);
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
    if constexpr (!Ar::kLoading) {
        // The bytes ar.seq writes: the count, then the two class
        // lists merged by seq.
        ar.u64(self._entries.size());
        const StashEntry *r = self._reals.head;
        const StashEntry *s = self._shadows.head;
        while (r || s) {
            const StashEntry *&e = !s || (r && r->seq < s->seq) ? r : s;
            StashEntry::serde(*e, ar);
            e = e->next;
        }
    } else {
        // ar.seq bounds-checks the count against the bytes left.  The
        // lists are derived: rebuilt in seq order, never serialized.
        // The victim cursor restarts at the shadow head.
        std::vector<StashEntry> ordered;
        ar.seq(ordered, [&](StashEntry &e) { StashEntry::serde(e, ar); });
        self._entries.clear();
        self._reals = self._shadows = SeqList{};
        self._victimCursor = nullptr;
        for (StashEntry &e : ordered) {
            const Addr addr = e.addr;
            auto [pos, inserted] =
                self._entries.emplace(addr, std::move(e));
            if (inserted)
                self.link(&pos->second);
        }
    }
}

template void Stash::serde(const Stash &, ckpt::Serializer &);
template void Stash::serde(Stash &, ckpt::Deserializer &);

} // namespace sboram
