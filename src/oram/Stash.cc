#include "Stash.hh"

namespace sboram {

Stash::Stash(unsigned capacity) : _capacity(capacity)
{
    // One slot past the capacity: insert() places the new entry
    // before enforceCapacity() displaces a shadow to make room.
    while (_slab.size() < std::size_t(capacity) + 1)
        grow();
}

void
Stash::grow()
{
    _slab.emplace_back();
    StashEntry *slot = &_slab.back();
    slot->next = _freeHead;
    _freeHead = slot;
    if (2 * _slab.size() <= _index.size())
        return;
    // Rehash at twice the size from the seq lists, which hold every
    // entry; the slab is untouched.
    ++_indexBits;
    _index.assign(std::size_t(1) << _indexBits, IndexSlot{});
    for (const SeqList *list : {&_reals, &_shadows}) {
        for (StashEntry *e = list->head; e; e = e->next)
            indexInsert(e);
    }
}

void
Stash::indexInsert(StashEntry *entry)
{
    const std::size_t mask = _index.size() - 1;
    std::size_t i = indexHome(entry->addr, _indexBits);
    while (_index[i].entry != nullptr)
        i = (i + 1) & mask;
    _index[i] = IndexSlot{entry->addr, entry};
}

void
Stash::indexErase(Addr addr)
{
    const std::size_t mask = _index.size() - 1;
    std::size_t hole = indexHome(addr, _indexBits);
    while (_index[hole].addr != addr) {
        SB_ASSERT(_index[hole].entry != nullptr,
                  "unindexing absent addr %llu",
                  static_cast<unsigned long long>(addr));
        hole = (hole + 1) & mask;
    }
    // Backward shift: pull each later member of the probe run into
    // the hole unless the hole lies before its home slot (it would
    // then be unreachable from its home).
    for (std::size_t j = (hole + 1) & mask; _index[j].entry != nullptr;
         j = (j + 1) & mask) {
        const std::size_t home = indexHome(_index[j].addr, _indexBits);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            _index[hole] = _index[j];
            hole = j;
        }
    }
    _index[hole] = IndexSlot{};
}

void
Stash::emplace(StashEntry &&entry)
{
    // Every slot taken means the reals overflowed the capacity (live,
    // or in the snapshot being restored).
    if (_freeHead == nullptr)
        grow();
    StashEntry *slot = _freeHead;
    _freeHead = slot->next;
    *slot = std::move(entry);
    indexInsert(slot);
    ++_size;
    link(slot);
}

void
Stash::erase(StashEntry *entry)
{
    indexErase(entry->addr);
    unlink(entry);
    recyclePayload(*entry);
    --_size;
    entry->next = _freeHead;
    _freeHead = entry;
}

void
Stash::reset()
{
    _freeHead = nullptr;
    for (StashEntry &slot : _slab) {
        slot = StashEntry{};
        slot.next = _freeHead;
        _freeHead = &slot;
    }
    _index.assign(_index.size(), IndexSlot{});
    _size = 0;
    _reals = _shadows = SeqList{};
    _victimCursor = nullptr;
}

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

SB_HOT void
Stash::enforceCapacity()
{
    // The stash is a fixed-size CAM: shadow entries are replaceable
    // and get displaced (coldest, then oldest, first) when the
    // structure fills up; real entries beyond the capacity are an
    // overflow (counted by trackOccupancy — functionally we keep them
    // so the simulation can proceed).
    while (_size > _capacity) {
        StashEntry *victim = displacementVictim();
        if (victim == nullptr)
            break;  // Only real entries left; overflow accounting.
        erase(victim);
    }
}

SB_HOT bool
Stash::insert(StashEntry entry)
{
    SB_ASSERT(entry.type != BlockType::Dummy,
              "dummy blocks are discarded, not stashed");
    entry.seq = _nextSeq++;

    StashEntry *found = lookup(entry.addr);
    if (found == nullptr) {
        if (entry.type == BlockType::Real)
            ++_realCount;
        emplace(std::move(entry));
        enforceCapacity();
        trackOccupancy();
        return true;
    }

    StashEntry &existing = *found;
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
    return lookup(addr);
}

StashEntry *
Stash::find(Addr addr)
{
    return lookup(addr);
}

SB_HOT void
Stash::remove(Addr addr)
{
    StashEntry *entry = lookup(addr);
    SB_ASSERT(entry != nullptr, "removing absent addr %llu",
              static_cast<unsigned long long>(addr));
    if (entry->type == BlockType::Real)
        --_realCount;
    erase(entry);
}

SB_HOT void
Stash::dropShadowOf(Addr addr)
{
    StashEntry *entry = lookup(addr);
    if (entry != nullptr && entry->type == BlockType::Shadow)
        erase(entry);
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
    StashStats::serde(self._stats, ar);
    // Entries travel in seq order, not slab order: which slot an
    // entry occupies depends on the free-list history, and a snapshot
    // must be byte-identical for identical stash contents (generation
    // diffing, resume bit-equality tests).
    if constexpr (!Ar::kLoading) {
        // The bytes ar.seq writes: the count, then the two class
        // lists merged by seq.
        ar.u64(self._size);
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
        // The victim cursor restarts at the shadow head.  A snapshot
        // taken after a real overflow may need more slots than the
        // capacity; emplace grows the slab for those.
        std::vector<StashEntry> ordered;
        ar.seq(ordered, [&](StashEntry &e) { StashEntry::serde(e, ar); });
        self.reset();
        for (StashEntry &e : ordered) {
            if (self.lookup(e.addr) == nullptr)
                self.emplace(std::move(e));
        }
    }
}

template void Stash::serde(const Stash &, ckpt::Serializer &);
template void Stash::serde(Stash &, ckpt::Deserializer &);

} // namespace sboram
