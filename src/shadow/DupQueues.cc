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

SB_HOT void
DupQueue::sortByLevel()
{
    // Counting pass over the levels: bucket k holds level top - k,
    // so the buckets run deepest first.
    unsigned top = 0;
    for (const Item &it : _items)
        top = std::max(top, it.cand.rearLevel);
    _bucketNext.assign(top + 2, 0);
    for (const Item &it : _items)
        ++_bucketNext[top - it.cand.rearLevel + 1];
    for (std::size_t k = 1; k < _bucketNext.size(); ++k)
        _bucketNext[k] += _bucketNext[k - 1];
    // Scatter in reverse push order: production pushes arrive in
    // rising seq, so every bucket comes out seq-descending already.
    _scratch.resize(_items.size());
    for (std::size_t i = _items.size(); i-- > 0;) {
        const Item &it = _items[i];
        _scratch[_bucketNext[top - it.cand.rearLevel]++] = it;
    }
    _items.swap(_scratch);
    // Insertion pass by `better`: exact for any push order, and one
    // comparison per item when the buckets are already in order.
    for (std::size_t i = 1; i < _items.size(); ++i) {
        if (!better(_items[i].cand, _items[i - 1].cand))
            continue;
        const Item moving = _items[i];
        std::size_t j = i;
        for (; j > 0 && better(moving.cand, _items[j - 1].cand); --j)
            _items[j] = _items[j - 1];
        _items[j] = moving;
    }
}

SB_HOT std::optional<DupCandidate>
DupQueue::popFor(unsigned slotLevel)
{
    if (!_sorted) {
        // Levels are small integers; hotness is an unbounded counter
        // and keeps the comparison sort.
        if (_rank == Rank::ByLevelDesc)
            sortByLevel();
        else
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
