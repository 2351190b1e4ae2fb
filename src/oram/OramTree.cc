#include "OramTree.hh"

#include <algorithm>

namespace sboram {

OramTree::OramTree(const OramGeometry &geo, unsigned slotsPerBucket,
                   bool payloadEnabled, std::uint64_t payloadWords)
    : _leafLevel(geo.leafLevel), _slots(slotsPerBucket),
      _numBuckets(geo.numBuckets), _numLeaves(geo.numLeaves),
      _payloadEnabled(payloadEnabled), _payloadWords(payloadWords),
      _store(geo.numSlots)
{
    _levelBase.resize(_leafLevel + 1);
    _levelShift.resize(_leafLevel + 1);
    for (unsigned level = 0; level <= _leafLevel; ++level) {
        _levelBase[level] = (BucketIndex(1) << level) - 1;
        _levelShift[level] = _leafLevel - level;
    }
    if (_payloadEnabled) {
        _cipherNonce.assign(geo.numSlots, 0);
        _cipherTag.assign(geo.numSlots, 0);
        _cipherLanes.assign(geo.numSlots * _payloadWords, 0);
    }
}

std::uint64_t
OramTree::countCiphers() const
{
    std::uint64_t n = 0;
    for (std::uint64_t nonce : _cipherNonce)
        if (nonce != 0)
            ++n;
    return n;
}

std::uint64_t
OramTree::countOccupied() const
{
    std::uint64_t n = 0;
    for (const Slot &s : _store)
        if (s.valid())
            ++n;
    return n;
}

std::uint64_t
OramTree::countReal() const
{
    std::uint64_t n = 0;
    for (const Slot &s : _store)
        if (s.isReal())
            ++n;
    return n;
}

template <class Self, class Ar>
void
OramTree::serde(Self &self, Ar &ar)
{
    std::uint64_t slots = self._store.size();
    ar.u64(slots);
    if constexpr (Ar::kLoading)
        if (slots != self._store.size())
            throw CkptMismatchError(
                "tree slot count mismatch: snapshot has " +
                std::to_string(slots) + ", geometry has " +
                std::to_string(self._store.size()));
    for (auto &s : self._store) {
        ar.u32(s.addr);
        ar.u32(s.leaf);
        ar.u32(s.version);
        ar.u8As(s.type);
    }

    // Ciphertext slab: only occupied slots travel, in ascending
    // slot-index order (the slab's natural order), each as
    // (slotIdx, nonce, tag, laneCount, lanes) — the same wire shape
    // the pre-slab side table used.  Erased slots' stale lane words
    // never reach the image.
    std::uint64_t ciphers = self.countCiphers();
    ar.u64(ciphers);
    if constexpr (Ar::kLoading) {
        if (!self._payloadEnabled && ciphers != 0)
            throw CkptMismatchError(
                "snapshot carries " + std::to_string(ciphers) +
                " ciphertexts but payloads are disabled");
        std::fill(self._cipherNonce.begin(), self._cipherNonce.end(), 0);
        std::fill(self._cipherTag.begin(), self._cipherTag.end(), 0);
    }
    std::uint64_t slotIdx = 0;
    for (std::uint64_t i = 0; i < ciphers; ++i, ++slotIdx) {
        if constexpr (!Ar::kLoading)
            while (self._cipherNonce[slotIdx] == 0)
                ++slotIdx;  // Skip to the next occupied slot.
        ar.u64(slotIdx);
        if constexpr (Ar::kLoading)
            if (slotIdx >= self._store.size())
                throw CkptMismatchError(
                    "ciphertext slot index " + std::to_string(slotIdx) +
                    " beyond geometry (" +
                    std::to_string(self._store.size()) + " slots)");
        ar.u64(self._cipherNonce[slotIdx]);
        if constexpr (Ar::kLoading)
            if (self._cipherNonce[slotIdx] == 0)
                throw CkptMismatchError(
                    "ciphertext entry with nonce 0 (the empty-slot "
                    "sentinel) at slot " + std::to_string(slotIdx));
        ar.u64(self._cipherTag[slotIdx]);
        std::uint64_t laneCount = self._payloadWords;
        ar.u64(laneCount);
        if constexpr (Ar::kLoading)
            if (laneCount != self._payloadWords)
                throw CkptMismatchError(
                    "ciphertext lane count mismatch at slot " +
                    std::to_string(slotIdx) + ": snapshot has " +
                    std::to_string(laneCount) + ", geometry has " +
                    std::to_string(self._payloadWords));
        auto *lanes = &self._cipherLanes[slotIdx * self._payloadWords];
        for (std::uint64_t w = 0; w < self._payloadWords; ++w)
            ar.u64(lanes[w]);
    }
}

template void OramTree::serde(const OramTree &, ckpt::Serializer &);
template void OramTree::serde(OramTree &, ckpt::Deserializer &);

} // namespace sboram
