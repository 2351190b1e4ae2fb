#include "DupQueues.hh"

#include <algorithm>

namespace sboram {

bool
DupQueue::better(const DupCandidate &a, const DupCandidate &b) const
{
    if (_rank == Rank::ByLevelDesc) {
        if (a.rearLevel != b.rearLevel)
            return a.rearLevel > b.rearLevel;
    } else {
        if (a.hotness != b.hotness)
            return a.hotness > b.hotness;
    }
    // Newest first: freshly evicted rear data rotates into the
    // prime (near-root) slots; re-offered circulating copies fill
    // what is left.  Oldest-first would ossify the near-root slots
    // on shadows of blocks that are never requested again.
    return a.seq > b.seq;
}

SB_HOT std::optional<DupCandidate>
DupQueue::popFor(unsigned slotLevel)
{
    if (!_sorted) {
        std::sort(_items.begin(), _items.end(),
                  [this](const Item &a, const Item &b) {
                      return better(a.cand, b.cand);
                  });
        _sorted = true;
        _cursor = 0;
    } else if (slotLevel < _lastLevel) {
        _cursor = 0;
    }
    _lastLevel = slotLevel;

    for (std::size_t i = _cursor; i < _items.size(); ++i) {
        Item &it = _items[i];
        if (it.cand.maxLevel <= slotLevel || copiesLeft(it) == 0)
            continue;
        // Everything skipped on the way here stays skippable.
        _cursor = i;
        ++it.taken;
        return it.cand;
    }
    _cursor = _items.size();
    return std::nullopt;
}

SB_HOT bool
DupQueue::refill()
{
    if (_items.empty())
        return false;
    ++_generation;
    _cursor = 0;
    return true;
}

std::size_t
DupQueue::size() const
{
    std::size_t n = 0;
    for (const Item &it : _items)
        n += copiesLeft(it);
    return n;
}

void
DupQueue::clear()
{
    _items.clear();
    _sorted = true;
    _cursor = 0;
    _lastLevel = 0;
    _generation = 0;
}

} // namespace sboram
