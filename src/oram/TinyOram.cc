#include "TinyOram.hh"

#include <algorithm>

#include "common/Errors.hh"
#include "obs/FlightRecorder.hh"
#include "obs/Observer.hh"

namespace sboram {

namespace {

/** Marker for "real copy currently lives in the stash". */
constexpr std::uint8_t kInStash = 0xff;

} // namespace

TinyOram::TinyOram(const OramConfig &cfg, DramModel &dram,
                   std::unique_ptr<DuplicationPolicy> policy)
    : _cfg(cfg), _geo(OramGeometry::derive(cfg)),
      _tree(_geo, cfg.slotsPerBucket, cfg.payloadEnabled,
            cfg.blockBytes / 8),
      _stash(cfg.stashCapacity),
      _posMap(_geo.totalBlocks),
      _recursion(cfg),
      _plb(cfg.plbBytes, cfg.blockBytes),
      _dram(dram),
      _addressMap(dram.geometry(), _geo.leafLevel + 1,
                  cfg.slotsPerBucket),
      _policy(policy ? std::move(policy)
                     : std::make_unique<NullDuplicationPolicy>()),
      _health(cfg.health, _geo.numSlots),
      _remapRng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x1234),
      _dummyRng(cfg.seed * 0xd6e8feb86659fd93ULL + 0x5678)
{
    SB_ASSERT(_recursion.totalBlocks() == _geo.totalBlocks,
              "address space mismatch");
    if (cfg.payloadEnabled) {
        SB_ASSERT(_geo.totalBlocks <= (std::uint64_t(1) << 18),
                  "payload mode is for functional-scale trees");
    }
    SB_ASSERT(cfg.treetopLevels <= _geo.leafLevel,
              "treetop deeper than the tree");
    if (cfg.fault.enabled()) {
        if (!cfg.payloadEnabled)
            SB_FATAL("fault injection corrupts stored ciphertexts "
                     "and needs payload mode (payloadEnabled)");
        _faults = std::make_unique<FaultInjector>(cfg.fault);
    }
    _realLevel.assign(_geo.totalBlocks, kInStash);
    _levelReady.assign(_geo.leafLevel + 1, 0);
    _stash.setHotnessOracle(_policy.get());
    if (cfg.payloadEnabled) {
        _stash.setPayloadRecycler(&_payloadPool);
        _placedIdx.assign(_geo.totalBlocks, 0);
    }
    initializeTree();
}

SB_HOT obs::TraceSession *
TinyOram::trace() const
{
    if (_obs == nullptr)
        return nullptr;
    return _obs->trace();
}

void
TinyOram::patternPayloadInto(Addr addr, std::uint32_t version,
                             std::vector<std::uint64_t> &out) const
{
    // Loop bound from the config, not from the (secret) payload
    // buffer being overwritten — same length, but structurally
    // independent of block contents.
    const std::size_t words = _cfg.blockBytes / 8;
    out.resize(words);
    PrfKey key{0xfeedfacecafebeefULL, 0x0123456789abcdefULL};
    for (std::size_t i = 0; i < words; ++i)
        out[i] = prf64(key, (addr << 20) ^ version, i);
}

void
TinyOram::initializeTree()
{
    // Assign every block a random leaf and place it greedily from the
    // leaf level upwards; anything that does not fit starts in the
    // stash (rare at 50 % utilisation).
    std::vector<std::uint64_t> plain;  // Reused across all blocks.
    for (Addr addr = 0; addr < _geo.totalBlocks; ++addr) {
        const LeafLabel leaf = randomLeaf();
        _posMap.update(addr, leaf);
        bool placed = false;
        for (int level = static_cast<int>(_geo.leafLevel);
             level >= 0 && !placed; --level) {
            const BucketIndex b =
                _tree.bucketOnPath(leaf, static_cast<unsigned>(level));
            for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
                Slot &slot = _tree.slot(b, s);
                if (slot.valid())
                    continue;
                slot.type = BlockType::Real;
                slot.addr = static_cast<std::uint32_t>(addr);
                slot.leaf = static_cast<std::uint32_t>(leaf);
                slot.version = 0;
                _realLevel[addr] = static_cast<std::uint8_t>(level);
                if (_cfg.payloadEnabled) {
                    patternPayloadInto(addr, 0, plain);
                    _codec.encryptRef(
                        plain.data(),
                        _tree.cipherRef(_tree.slotIndex(b, s)));
                }
                placed = true;
                break;
            }
        }
        if (!placed) {
            StashEntry e;
            e.addr = addr;
            e.leaf = leaf;
            e.version = 0;
            e.type = BlockType::Real;
            if (_cfg.payloadEnabled)
                patternPayloadInto(addr, 0, e.payload);
            _stash.insert(std::move(e));
            _realLevel[addr] = kInStash;
        }
    }
}

LeafLabel
TinyOram::nextEvictionLeaf()
{
    // Reverse-lexicographic order [18], [34]: bit-reverse a counter
    // over L bits so successive evictions spread over the tree.
    std::uint64_t g = _evictionCounter++;
    LeafLabel leaf = 0;
    for (unsigned bit = 0; bit < _geo.leafLevel; ++bit) {
        leaf = (leaf << 1) | (g & 1);
        g >>= 1;
    }
    return leaf;
}

SB_HOT Cycles
TinyOram::schedulePath(DramModel &dram, LeafLabel leaf, Cycles start,
                       bool isWrite, Cycles busTime,
                       Cycles *levelReady) const
{
    const unsigned ttl = _cfg.treetopLevels;
    const unsigned leafLevel = _geo.leafLevel;
    const unsigned span = _addressMap.subtreeLevels();
    const unsigned z = _cfg.slotsPerBucket;
    Cycles finish = 0;
    // Levels [lo, hi] are the off-chip part of one sub-tree group.
    auto group = [&](unsigned lo, unsigned hi) {
        const unsigned n = (hi - lo + 1) * z;
        const DramCoord c =
            _addressMap.mapBucket(_tree.bucketOnPath(leaf, lo), lo);
        const DramRun run = dram.scheduleRun(start, c, n, isWrite,
                                             busTime);
        if (levelReady) {
            for (unsigned level = lo; level <= hi; ++level)
                levelReady[level] =
                    run.first + (level - lo) * z * run.stride;
        }
        finish = std::max(finish, run.last(n));
    };
    if (isWrite) {
        for (unsigned top = leafLevel + 1; top > ttl;) {
            const unsigned hi = top - 1;
            const unsigned lo = std::max(ttl, hi / span * span);
            group(lo, hi);
            top = lo;
        }
    } else {
        for (unsigned lo = ttl; lo <= leafLevel;) {
            const unsigned hi =
                std::min(leafLevel, (lo / span + 1) * span - 1);
            group(lo, hi);
            lo = hi + 1;
        }
    }
    return finish;
}

Cycles
TinyOram::estimatePathReadLatency()
{
    DramModel probe(_dram.timing(), _dram.geometry());
    const Cycles finish = schedulePath(
        probe, 0, 0, false, _dram.timing().tBURST, nullptr);
    return finish + _cfg.aesLatency;
}

void
TinyOram::maybeInjectFaults(LeafLabel leaf, unsigned track, Cycles at)
{
    // Scheduled off the path-read counter: one deterministic draw
    // per path access, independent of thread count and of how many
    // requests an access chain bundles.
    const std::uint64_t tick = _stats.pathReads;
    // Spatially correlated storms only strike their configured
    // subtree; other paths read healthy memory.
    if (!_faults->targetsLeaf(leaf, _geo.leafLevel))
        return;
    if (!_faults->shouldInject(tick))
        return;

    // Candidate targets: occupied off-chip slots on this path (the
    // treetop lives on-chip and is not exposed to DRAM faults).
    // Member scratch: this runs inside the pathRead hot path, so the
    // candidate list reuses its capacity across accesses.
    std::vector<std::uint64_t> &targets = _faultTargetScratch;
    targets.clear();
    targets.reserve((_geo.leafLevel + 1 - _cfg.treetopLevels) *
                    _cfg.slotsPerBucket);
    for (unsigned level = _cfg.treetopLevels; level <= _geo.leafLevel;
         ++level) {
        const BucketIndex b = _tree.bucketOnPath(leaf, level);
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            if (_tree.slot(b, s).valid())
                targets.push_back(_tree.slotIndex(b, s));
        }
    }
    if (targets.empty())
        return;

    const std::uint64_t slotIdx =
        targets[_faults->pickTarget(tick, targets.size())];
    _faults->corrupt(_tree.cipherRef(slotIdx), tick,
                     _faults->pickKind(tick), slotIdx);
    ++_stats.faultsInjected;
    if (obs::TraceSession *t = trace())
        t->instant(track, "fault_injected", at);
}

bool
TinyOram::recoverRealPayload(const Slot &slot, unsigned level,
                             LeafLabel leaf,
                             std::vector<std::uint64_t> &out)
{
    // 1. A stash shadow (includes shadows this very path read pulled
    //    in from shallower levels).
    if (const StashEntry *sh = _stash.find(slot.addr);
        sh && sh->isShadow() && sh->version == slot.version) {
        out = sh->payload;
        return true;
    }

    // 2. Shadows vacuumed into the eviction path buffer (already
    //    decrypted and verified when they entered it).
    if (const std::size_t i = evictShadowIndex(slot.addr);
        i < _evictShadows.size() &&
        _evictShadows[i].version == slot.version) {
        out = _evictShadows[i].payload;
        return true;
    }

    // 3. A tree slot above `level` on the path to `leaf`: Rule-2
    //    keeps every tree shadow strictly above its real copy, and
    //    Rule-1 keeps it on the block's own path.  A path read passes
    //    the accessed path, whose buckets above `level` coincide with
    //    the block's; the scrub passes the block's own label.
    for (unsigned lvl = 0; lvl < level; ++lvl) {
        const BucketIndex b = _tree.bucketOnPath(leaf, lvl);
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            const Slot &cand = _tree.slot(b, s);
            if (!cand.isShadow() || cand.addr != slot.addr ||
                cand.version != slot.version)
                continue;
            const std::uint64_t candIdx = _tree.slotIndex(b, s);
            // A parked shadow's authoritative copy is on chip and by
            // construction uncorrupted.
            if (auto sp = _spare.find(candIdx); sp != _spare.end()) {
                out = sp->second;
                return true;
            }
            if (_codec.verifyDecrypt(_tree.cipherView(candIdx), out))
                return true;
            // That copy is corrupt too; keep looking.
        }
    }
    return false;
}

void
TinyOram::handleUnrecoverable(const Slot &slot, BucketIndex bucket,
                              unsigned level,
                              std::vector<std::uint64_t> &payload)
{
    setPanicDiag(strprintf(
        "event=corruption access=%llu path_reads=%llu bucket=%llu "
        "level=%u addr=%u version=%u recovered=0",
        static_cast<unsigned long long>(_accessCounter),
        static_cast<unsigned long long>(_stats.pathReads),
        static_cast<unsigned long long>(bucket), level, slot.addr,
        slot.version));

    switch (_cfg.fault.onUnrecoverable) {
    case UnrecoverablePolicy::Throw:
        throw CorruptionError(
            strprintf("integrity violation at bucket %llu level %u: "
                      "block %u has no intact copy",
                      static_cast<unsigned long long>(bucket), level,
                      slot.addr),
            _accessCounter, bucket, level,
            /*transient=*/_faults != nullptr);
    case UnrecoverablePolicy::Count:
        // Declare the block lost but keep simulating: deterministic
        // zero data so downstream timing stays reproducible.
        payload.assign(_cfg.blockBytes / 8, 0);
        return;
    case UnrecoverablePolicy::Panic:
        break;
    }
    SB_PANIC("integrity violation at bucket %llu level %u "
             "(block %u unrecoverable)",
             static_cast<unsigned long long>(bucket), level,
             slot.addr);
}

SB_HOT void
TinyOram::countFault(std::uint64_t slotIdx, Cycles at, bool recovered,
                     obs::TraceSession *t, unsigned track)
{
    ++_stats.faultsDetected;
    if (t)
        t->instant(track, "fault_detected", at);
    // Tier-1 bookkeeping: repeated detected failures of one physical
    // slot quarantine it.
    if (_health.recordSlotFailure(slotIdx)) {
        ++_stats.slotsQuarantined;
        if (_flight != nullptr)
            _flight->record(at, obs::FlightKind::SlotQuarantine,
                            slotIdx);
        if (t)
            t->instant(track, "slot_quarantined", at);
    }
    if (recovered)
        ++_stats.faultsRecovered;
    else
        ++_stats.faultsUnrecoverable;
    if (t)
        t->instant(track,
                   recovered ? "fault_recovered" : "fault_unrecoverable",
                   at);
}

SB_HOT void
TinyOram::reclaimCorruptShadow(Slot &slot, std::uint64_t slotIdx,
                               Cycles at, obs::TraceSession *t,
                               unsigned track)
{
    countFault(slotIdx, at, true, t, track);
    slot.clear();
    _tree.eraseCipher(slotIdx);
}

SB_HOT bool
TinyOram::healTagFailure(Slot &slot, std::uint64_t slotIdx,
                         BucketIndex bucket, unsigned level,
                         LeafLabel leaf, Cycles at, unsigned track,
                         std::vector<std::uint64_t> &payload)
{
    obs::TraceSession *t = trace();
    if (slot.isShadow()) {
        _payloadPool.release(std::move(payload));
        reclaimCorruptShadow(slot, slotIdx, at, t, track);
        return false;
    }
    const bool healed = recoverRealPayload(slot, level, leaf, payload);
    countFault(slotIdx, at, healed, t, track);
    if (!healed) {
        // sblint:allow-next-line(hot-path-alloc): unrecoverable-fault exit — formats the fatal diagnostic once, then the ladder unwinds; never on a healthy access
        handleUnrecoverable(slot, bucket, level, payload);
    }
    return true;
}

SB_HOT bool
TinyOram::parkIfQuarantined(std::uint64_t slotIdx,
                            const std::uint64_t *plain)
{
    if (!_health.quarantineActive() || !_health.isQuarantined(slotIdx))
        return false;
    _spare[slotIdx].assign(plain, plain + _cfg.blockBytes / 8);
    _tree.eraseCipher(slotIdx);
    ++_stats.quarantineEvacuations;
    return true;
}

SB_HOT bool
TinyOram::reapplyStuckCell(std::uint64_t slotIdx, Cycles at,
                           unsigned track)
{
    if (!_faults ||
        !_faults->onSlotRewritten(slotIdx, _tree.cipherRef(slotIdx)))
        return false;
    ++_stats.faultsInjected;
    if (obs::TraceSession *t = trace())
        t->instant(track, "fault_stuck_reapplied", at);
    return true;
}

SB_HOT std::size_t
TinyOram::evictShadowIndex(Addr addr) const
{
    std::size_t i = 0;
    while (i < _evictShadows.size() && _evictShadows[i].addr != addr)
        ++i;
    return i;
}

SB_HOT TinyOram::PathReadOutcome
TinyOram::pathRead(LeafLabel leaf, ReadMode mode, Addr wantAddr,
                   Cycles startTime)
{
    ++_stats.pathReads;
    if (_traceSink)
        _traceSink->onPathAccess(leaf, false);
    // Evictions drain in the background and outlive the request that
    // triggered them, so they get their own trace track.
    const unsigned track = mode == ReadMode::Evict ? obs::kTrackEviction
                                                   : obs::kTrackPipeline;
    if (_faults)
        maybeInjectFaults(leaf, track, startTime);

    const unsigned ttl = _cfg.treetopLevels;
    _tree.bucketsOnPath(leaf, _pathBuckets);
    const Cycles busTime = _dram.busTimeFor(
        false, _cfg.xorCompression, _cfg.slotsPerBucket);
    const Cycles stride = _dram.runStride(busTime);
    const Cycles dramDone = schedulePath(_dram, leaf, startTime, false,
                                         busTime, _levelReady.data());

    PathReadOutcome out;
    out.finish = std::max(dramDone,
                          startTime + _cfg.onChipLatency) +
                 _cfg.aesLatency;

    if (obs::TraceSession *t = trace()) {
        t->complete(track,
                    mode == ReadMode::Evict ? "evict_path_read"
                                            : "path_read",
                    startTime, out.finish - startTime);
        t->complete(track, "crypto",
                    out.finish - _cfg.aesLatency, _cfg.aesLatency);
    }

    // What this read does with a valid slot: Evict consumes every
    // block, Request consumes the wanted block and copies every
    // shadow into the stash, Dummy discards the whole path.
    auto consumes = [&](const Slot &slot) {
        return mode == ReadMode::Evict ||
               (mode == ReadMode::Request && slot.addr == wantAddr);
    };
    auto copiesShadow = [&](const Slot &slot) {
        return mode == ReadMode::Request && slot.isShadow();
    };
    // A slot whose ciphertext this read authenticates and decrypts.
    // The crypto pre-pass and the main loop both select through this
    // one predicate, so the batch holds exactly the ciphertexts the
    // loop consumes, in the loop's order.  Parked slots (tier-1 spare
    // store) have no ciphertext to read.
    auto decrypts = [&](const Slot &slot, std::uint64_t slotIdx) {
        return _cfg.payloadEnabled && slot.valid() &&
               (consumes(slot) || copiesShadow(slot)) &&
               _spare.find(slotIdx) == _spare.end();
    };

    // Crypto pre-pass: verify and decrypt every selected slot of the
    // path in one batch, so the independent tag chains overlap.  It
    // runs after fault injection, and the main loop rewrites no
    // ciphertext before reading it, so each verdict is the one a
    // per-slot verifyDecrypt in the loop would return.
    const std::uint64_t words = _cfg.blockBytes / 8;
    std::size_t cursor = 0;  // Next batch entry the main loop reads.
    if (_cfg.payloadEnabled) {
        _readViews.clear();
        for (unsigned level = 0; level <= _geo.leafLevel; ++level) {
            const BucketIndex b = _pathBuckets[level];
            for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
                const std::uint64_t slotIdx = _tree.slotIndex(b, s);
                if (decrypts(_tree.slot(b, s), slotIdx))
                    _readViews.push_back(_tree.cipherView(slotIdx));
            }
        }
        _readPlains.resize(_readViews.size() * words);
        _readOk.resize(_readViews.size());
        _codec.verifyDecryptBatch(_readViews.data(), _readViews.size(),
                                  words, _readPlains.data(),
                                  _readOk.data());
    }

    for (unsigned level = 0; level <= _geo.leafLevel; ++level) {
        const BucketIndex b = _pathBuckets[level];
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            const bool onChip = level < ttl;
            const Cycles ready = onChip
                ? startTime + _cfg.onChipLatency
                : _levelReady[level] + s * stride;
            Slot &slot = _tree.slot(b, s);
            if (!slot.valid())
                continue;

            // Early forwarding of the intended block (or a shadow
            // copy of it): record the earliest matching slot.  XOR
            // compression cannot forward early — the intended block
            // is reconstructed only after the whole path is read.
            if (mode == ReadMode::Request && slot.addr == wantAddr) {
                const Cycles fwd = _cfg.xorCompression
                    ? out.finish
                    : ready + _cfg.aesLatency;
                if (fwd < out.forwardAt) {
                    out.forwardAt = fwd;
                    out.forwardLevel = level;
                    out.usedShadow =
                        !_cfg.xorCompression && slot.isShadow();
                    out.foundInTreetop = onChip;
                }
            }

            if (mode == ReadMode::Dummy)
                continue;  // Contents discarded, tree untouched.

            const std::uint64_t slotIdx = _tree.slotIndex(b, s);
            const bool consume = consumes(slot);
            const bool copyShadow = copiesShadow(slot);

            if (!consume && !copyShadow)
                continue;  // RAW read-only: leave other blocks alone.

            StashEntry e;
            e.addr = slot.addr;
            e.leaf = slot.leaf;
            e.version = slot.version;
            e.type = slot.type;
            if (_cfg.payloadEnabled) {
                // A pooled buffer instead of one allocation per block.
                e.payload = _payloadPool.acquire(words);
                // Tier-1 spare store: a remapped cell's authoritative
                // copy lives on chip — the bad ciphertext stripe is
                // never read, so it can neither fault nor need
                // healing.  Consumption retires the parked copy; a
                // non-consuming shadow copy leaves it in place.
                // Every other slot takes the next pre-pass verdict.
                bool authentic = true;
                if (decrypts(slot, slotIdx)) {
                    SB_ASSERT(cursor < _readViews.size(),
                              "path read decrypts past its batch");
                    authentic = _readOk[cursor] != 0;
                    if (authentic) {
                        const std::uint64_t *plain =
                            _readPlains.data() + cursor * words;
                        std::copy(plain, plain + words,
                                  e.payload.begin());
                    }
                    ++cursor;
                } else {
                    auto sp = _spare.find(slotIdx);
                    e.payload.assign(sp->second.begin(),
                                     sp->second.end());
                    if (consume)
                        _spare.erase(sp);
                }
                if (!authentic &&
                    !healTagFailure(slot, slotIdx, b, level, leaf, ready,
                                    track, e.payload))
                    continue;  // A corrupt shadow copy was dropped.
            }
            if (mode == ReadMode::Evict && e.isShadow()) {
                // Keep eviction-path shadows in the path buffer for
                // the imminent path write (deduplicated by address).
                if (evictShadowIndex(e.addr) == _evictShadows.size())
                    _evictShadows.push_back(std::move(e));
                else
                    _payloadPool.release(std::move(e.payload));
            } else {
                _stash.insert(std::move(e));
            }

            if (consume) {
                if (slot.isReal())
                    _realLevel[slot.addr] = kInStash;
                slot.clear();
                if (_cfg.payloadEnabled)
                    _tree.eraseCipher(slotIdx);
            }
            // copyShadow without consume: the tree copy stays valid;
            // the stash now holds an identical (replaceable) copy.
        }
    }
    SB_ASSERT(cursor == _readViews.size(),
              "path read left %llu batch verdicts unread",
              static_cast<unsigned long long>(_readViews.size() -
                                              cursor));
    return out;
}

SB_HOT Cycles
TinyOram::pathWrite(LeafLabel leaf, Cycles startTime)
{
    ++_stats.pathWrites;
    if (_traceSink)
        _traceSink->onPathAccess(leaf, true);
    _policy->beginPathWrite(leaf);

    _tree.bucketsOnPath(leaf, _pathBuckets);
    SB_ASSERT(_pendingEnc.empty() && _placedAddrs.empty(),
              "path-write scratch not drained");
    if (_cfg.recirculateShadows)
        offerShadows(leaf);
    placeGreedy(leaf);
    fillDummies();
    flushWrite(startTime);

    _policy->endPathWrite();

    // DRAM writes for the off-chip levels, leaf to root order.
    const Cycles dramDone =
        schedulePath(_dram, leaf, startTime + _cfg.aesLatency, true,
                     _dram.timing().tBURST, nullptr);
    const Cycles done =
        std::max(dramDone, startTime + _cfg.onChipLatency);
    if (obs::TraceSession *t = trace()) {
        // The modelled crypto phase: the whole path is re-encrypted
        // (one batch keystream pass) before the burst leaves the chip.
        t->complete(obs::kTrackEviction, "crypto", startTime,
                    _cfg.aesLatency);
        t->complete(obs::kTrackEviction, "path_write", startTime,
                    done - startTime);
    }
    return done;
}

SB_HOT std::uint32_t
TinyOram::placedBufIdx(Addr addr)
{
    std::uint32_t &ref = _placedIdx[addr];
    if (ref == 0) {
        const std::size_t idx = _placedAddrs.size();
        // Grow the cache against its own high-water counter, not
        // _placedBufs.size(): the buffers hold payload words, and
        // occupancy is placement bookkeeping that must stay
        // independent of them.
        if (_placedBufsMade <= idx) {
            _placedBufs.emplace_back();
            ++_placedBufsMade;
        }
        _placedAddrs.push_back(addr);
        ref = static_cast<std::uint32_t>(idx) + 1;
    }
    return ref - 1;
}

SB_HOT void
TinyOram::offerShadows(LeafLabel leaf)
{
    // Rule-1 bounds a stash shadow by its label's common prefix with
    // this path, Rule-2 by its real copy's tree level.  Its payload
    // stays in the stash until the dummy fill chooses it (few are),
    // and the greedy pass never places a stash shadow.
    _stash.forEachShadow([&](const StashEntry &e) {
        const std::uint8_t realLvl = _realLevel[e.addr];
        SB_ASSERT(realLvl != kInStash,
                  "stash shadow coexists with a stash real copy");
        const unsigned maxLevel = std::min<unsigned>(
            _tree.commonLevel(e.leaf, leaf), realLvl);
        _policy->offerStashShadow(e.addr, e.leaf, e.version, realLvl,
                                  maxLevel);
    });

    // Shadows vacuumed by this eviction's path read circulate the
    // same way.  If the real copy came off this same path into the
    // stash, its final location is only known after the greedy
    // placements, so the offer uses the label bound and the dummy
    // fill re-checks Rule-2 before committing a slot.
    for (const StashEntry &e : _evictShadows) {
        const std::uint8_t realLvl = _realLevel[e.addr];
        const bool realInStash = realLvl == kInStash;
        const unsigned rearLevel = realInStash ? _geo.leafLevel : realLvl;
        const unsigned maxLevel = std::min<unsigned>(
            _tree.commonLevel(e.leaf, leaf),
            realInStash ? _geo.leafLevel + 1 : realLvl);
        if (_cfg.payloadEnabled)
            _placedBufs[placedBufIdx(e.addr)] = e.payload;
        _policy->offerStashShadow(e.addr, e.leaf, e.version, rearLevel,
                                  maxLevel);
    }
}

SB_HOT void
TinyOram::placeGreedy(LeafLabel leaf)
{
    _dummyScratch.clear();

    // Placements mark entries consumed in the plan and remove them
    // from the stash, so shallower levels see exactly what a fresh
    // rescan would.
    Stash::EvictionPlan &plan = _planScratch;
    _stash.planEvictionInto(plan, [&](LeafLabel blockLeaf) {
        return _tree.commonLevel(blockLeaf, leaf);
    });

    for (int levelI = static_cast<int>(_geo.leafLevel); levelI >= 0;
         --levelI) {
        const unsigned level = static_cast<unsigned>(levelI);
        const BucketIndex b = _pathBuckets[level];

        // Tier-1 note: quarantined slots stay full-fledged placement
        // targets.  Their payloads are diverted into the on-chip
        // spare store by flushWrite, so quarantine never shrinks
        // capacity — capacity loss would retain blocks in the stash
        // and leak fault state through the stash-hit pattern (see
        // FaultObliviousnessTest).
        unsigned slotCursor = 0;
        plan.forEachEligible(level, [&](Stash::PlanEntry &cand) {
            if (slotCursor >= _cfg.slotsPerBucket)
                return false;
            if (cand.shadow) {
                // Stash shadows are not placed greedily (that would
                // sink them right back next to their real copy);
                // they re-enter the tree through the dummy fill,
                // which puts them where they help.
                return true;
            }
            StashEntry *entry = _stash.find(cand.addr);
            SB_ASSERT(entry != nullptr, "eligible entry vanished");

            Slot value;
            value.type = entry->type;
            value.addr = static_cast<std::uint32_t>(entry->addr);
            value.leaf = static_cast<std::uint32_t>(entry->leaf);
            value.version = entry->version;

            const std::uint64_t slotIdx = _tree.slotIndex(b, slotCursor);
            _tree.slot(b, slotCursor) = value;
            if (_cfg.payloadEnabled) {
                // The entry leaves the stash right below; hand its
                // buffer to the dummy fill instead of copying, and
                // defer the encryption to flushWrite (nonce order is
                // the pending-record order, which matches the
                // per-slot encrypt order this replaces).
                const std::uint32_t bi = placedBufIdx(entry->addr);
                std::swap(_placedBufs[bi], entry->payload);
                _pendingEnc.push_back(PendingEncrypt{slotIdx, bi});
            }
            if (value.isReal())
                _realLevel[entry->addr] =
                    static_cast<std::uint8_t>(level);

            PlacedBlock placed;
            placed.addr = entry->addr;
            placed.leaf = entry->leaf;
            placed.version = entry->version;
            placed.level = level;
            placed.wasShadow = entry->isShadow();
            _policy->onBlockPlaced(placed);

            _stash.remove(cand.addr);
            cand.placed = true;
            ++slotCursor;
            return true;
        });

        for (; slotCursor < _cfg.slotsPerBucket; ++slotCursor)
            _dummyScratch.push_back(DummySlot{b, slotCursor, level});
    }
}

SB_HOT void
TinyOram::fillDummies()
{
    // Root side first, so the rear-most candidates land in the slots
    // that advance them the furthest (Algorithm 1, line 4).  All of
    // this happens inside the controller before the re-encrypted
    // path leaves the chip, so the assignment order is externally
    // invisible.
    _evictShadowPlaced.assign(_evictShadows.size(), 0);
    for (auto it = _dummyScratch.rbegin(); it != _dummyScratch.rend();
         ++it) {
        Slot &slot = _tree.slot(it->bucket, it->slot);
        const std::uint64_t slotIdx =
            _tree.slotIndex(it->bucket, it->slot);
        slot.clear();

        // Tier-2 degraded mode and service-layer backpressure both
        // temporarily suppress duplication so shadows do not compete
        // with reals for bucket space.  Externally invisible: slot
        // contents are re-encrypted either way.
        std::optional<ShadowChoice> choice =
            _health.duplicationSuppressed()
                ? std::optional<ShadowChoice>{}
                : _policy->selectShadow(it->level);
        // Rule-2 safety re-check: the real copy must be in the tree,
        // strictly below this slot (a buffered shadow's real copy
        // may have stayed in the stash).
        if (choice) {
            const std::uint8_t realLvl = _realLevel[choice->addr];
            if (realLvl == kInStash || it->level >= realLvl)
                choice.reset();
        }
        if (!choice) {
            if (_cfg.payloadEnabled) {
                _tree.eraseCipher(slotIdx);
                _spare.erase(slotIdx);
            }
            continue;
        }
        slot.type = BlockType::Shadow;
        slot.addr = static_cast<std::uint32_t>(choice->addr);
        slot.leaf = static_cast<std::uint32_t>(choice->leaf);
        slot.version = choice->version;
        ++_stats.shadowsWritten;
        if (_cfg.payloadEnabled) {
            // A candidate without a buffer yet is a stash shadow:
            // copy its payload now, while the stash still has it.
            if (_placedIdx[choice->addr] == 0) {
                const StashEntry *sh = _stash.find(choice->addr);
                SB_ASSERT(sh != nullptr,
                          "shadow candidate has no payload");
                _placedBufs[placedBufIdx(choice->addr)] = sh->payload;
            }
            _pendingEnc.push_back(
                PendingEncrypt{slotIdx, _placedIdx[choice->addr] - 1});
        }
        if (choice->releaseStashCopy)
            _stash.dropShadowOf(choice->addr);
        if (const std::size_t i = evictShadowIndex(choice->addr);
            i < _evictShadows.size())
            _evictShadowPlaced[i] = 1;
    }
}

SB_HOT void
TinyOram::flushWrite(Cycles startTime)
{
    // One keystream pass re-encrypts every slot this write placed
    // (greedy reals and dummy-fill shadows — the slot sets are
    // disjoint, so each slot is encrypted exactly once).  Deferring
    // the per-slot encryptions here keeps the placement loops
    // branch-light and lets the codec amortise the PRF setup.
    if (_cfg.payloadEnabled && !_pendingEnc.empty()) {
        const std::uint64_t words = _cfg.blockBytes / 8;
        _encPlains.clear();
        _encRefs.clear();
        // Tier-1 spare-store remap: a placement into a quarantined
        // slot parks its plaintext on chip instead of writing the
        // bad cell.  The placement itself — and therefore stash
        // occupancy and the external trace — is identical to a
        // healthy slot's.  The slots that are written stay at the
        // front of _pendingEnc, counted alongside the pushes: the
        // batch length is placement bookkeeping, so it must not be
        // derived from a buffer that holds payload pointers.
        std::size_t n = 0;
        for (std::size_t i = 0; i < _pendingEnc.size(); ++i) {
            const PendingEncrypt pe = _pendingEnc[i];
            const std::uint64_t *plain = _placedBufs[pe.bufIdx].data();
            if (parkIfQuarantined(pe.slotIdx, plain))
                continue;
            _encPlains.push_back(plain);
            _encRefs.push_back(_tree.cipherRef(pe.slotIdx));
            _pendingEnc[n++] = pe;
        }
        if (n > 0) {
            // sblint:allow-next-line(hot-path-alloc): pool-backed scratch; allocation-free once the pool is warm
            std::vector<std::uint64_t> ks =
                _payloadPool.acquire(n * words);
            _codec.encryptBatch(_encPlains.data(), _encRefs.data(), n,
                                words, ks.data());
            _payloadPool.release(std::move(ks));
        }
        // Stuck-cell re-application after the fact: each rewrite is
        // keyed by slot index alone, so doing them after the batch is
        // equivalent to interleaving them with per-slot encrypts.
        for (std::size_t i = 0; i < n; ++i)
            reapplyStuckCell(_pendingEnc[i].slotIdx, startTime,
                             obs::kTrackEviction);
    }
    _pendingEnc.clear();
    for (Addr a : _placedAddrs)
        _placedIdx[a] = 0;
    _placedAddrs.clear();

    // Buffered shadows that were not re-placed fall back into the
    // stash (replaceable), where merging and LFU displacement apply.
    for (std::size_t i = 0; i < _evictShadows.size(); ++i) {
        StashEntry &e = _evictShadows[i];
        if (!_evictShadowPlaced[i])
            _stash.insert(std::move(e));
        else
            _payloadPool.release(std::move(e.payload));
    }
    _evictShadows.clear();
}

void
TinyOram::evictPath(Cycles time)
{
    // The whole eviction drains in the background: the DRAM model
    // serialises its commands against later path reads at the
    // bank/bus level, so a following request pays exactly the
    // contention the eviction causes rather than a full controller
    // stall (the controller pipelines the read-write access behind
    // the read-only ones).
    const LeafLabel leaf = nextEvictionLeaf();
    const PathReadOutcome read =
        pathRead(leaf, ReadMode::Evict, kInvalidAddr, time);
    _lastEvictionDone = pathWrite(leaf, read.finish);
}

void
TinyOram::maybeEvict(Cycles time)
{
    if (_accessCounter % _cfg.evictionRate != 0)
        return;
    ++_stats.evictions;
    evictPath(time);
}

void
TinyOram::applyBackpressure(Cycles time)
{
    if (!_health.config().backpressureEnabled())
        return;
    if (_health.degraded())
        ++_stats.degradedTicks;
    int change = _health.noteStashOccupancy(_stash.realCount());
    if (change > 0) {
        ++_stats.degradedEntries;
        if (_flight != nullptr)
            _flight->record(time, obs::FlightKind::DegradedEnter,
                            _stash.realCount());
        obs::forensics().degraded.store(1);
        if (obs::TraceSession *t = trace())
            t->instant(obs::kTrackEviction, "degraded_enter", time);
    }
    if (_health.degraded()) {
        // One emergency background sweep per access while degraded:
        // an extra eviction on the same deterministic
        // reverse-lexicographic sequence, draining in the background
        // exactly like scheduled evictions.  The sweep appears in
        // the external trace, but the degraded latch depends only on
        // real-stash occupancy — which a clean run under the same
        // health config follows identically — so the trace stays
        // bit-identical to the fault-free run
        // (tests/security/FaultObliviousnessTest.cc).
        ++_stats.emergencyEvictions;
        evictPath(time);
        change = _health.noteStashOccupancy(_stash.realCount());
    }
    if (change < 0) {
        if (_flight != nullptr)
            _flight->record(time, obs::FlightKind::DegradedExit,
                            _stash.realCount());
        obs::forensics().degraded.store(0);
        if (obs::TraceSession *t = trace())
            t->instant(obs::kTrackEviction, "degraded_exit", time);
    }
}

void
TinyOram::shiftFaultRealization(std::uint32_t minGeneration)
{
    if (_faults)
        _faults->reseedTo(minGeneration);
}

bool
TinyOram::scrubStorage()
{
    if (!_cfg.payloadEnabled)
        return true;
    bool clean = true;
    std::vector<std::uint64_t> plain;
    for (BucketIndex b = 0; b < _tree.numBuckets(); ++b) {
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            Slot &slot = _tree.slot(b, s);
            const std::uint64_t slotIdx = _tree.slotIndex(b, s);
            // Parked slots hold no ciphertext — the on-chip spare
            // copy is authoritative and cannot corrupt.
            if (!slot.valid() || _spare.count(slotIdx) ||
                _codec.verify(_tree.cipherView(slotIdx)))
                continue;
            if (slot.isShadow()) {
                // A lost redundant copy, never lost data.
                reclaimCorruptShadow(slot, slotIdx, _freeAt);
                continue;
            }
            // Heal from the places the read path heals from, searched
            // along the block's own path.  An unhealable slot is left
            // untouched: the next path read of it does the full
            // detection/unrecoverable accounting exactly once.
            if (!recoverRealPayload(slot, _realLevel[slot.addr],
                                    slot.leaf, plain)) {
                clean = false;
                continue;
            }
            countFault(slotIdx, _freeAt, true);
            if (parkIfQuarantined(slotIdx, plain.data()))
                continue;
            _codec.encryptRef(plain.data(), _tree.cipherRef(slotIdx));
            if (reapplyStuckCell(slotIdx, _freeAt,
                                 obs::kTrackCheckpoint))
                clean = false;  // It re-corrupted the healed rewrite.
        }
    }
    return clean;
}

AccessResult
TinyOram::accessOne(Addr addr, Cycles startTime, Op op,
                    const std::vector<std::uint64_t> *writeData)
{
    AccessResult res;
    res.start = startTime;

    const LeafLabel leaf = _posMap.lookup(addr);
    PathReadOutcome read = pathRead(leaf, ReadMode::Request, addr,
                                    startTime);
    SB_ASSERT(read.forwardAt != kNoCycles,
              "block %llu missing from path %llu (invariant broken)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(leaf));

    // Remap to a fresh uniformly random leaf (Step-3).
    _posMap.update(addr, randomLeaf());
    StashEntry *entry = _stash.find(addr);
    SB_ASSERT(entry && entry->type == BlockType::Real,
              "intended block not in stash after path read");
    entry->leaf = _posMap.lookup(addr);

    // Apply a write now — the eviction below may push the block
    // straight back into the tree.
    if (op == Op::Write)
        applyWrite(*entry, writeData);

    res.forwardAt = read.forwardAt;
    res.forwardLevel = read.forwardLevel;
    res.usedShadow = read.usedShadow;
    res.onChipHit = read.foundInTreetop;
    res.pathAccesses = 1;
    if (read.usedShadow) {
        ++_stats.shadowForwards;
        SB_ASSERT(_geo.leafLevel >= read.forwardLevel, "level");
        if (obs::TraceSession *t = trace())
            t->instant(obs::kTrackPipeline, "shadow_forward",
                       read.forwardAt);
    }

    endAccess(false, read.finish);
    res.completeAt = read.finish;
    return res;
}

void
TinyOram::applyWrite(StashEntry &e,
                     const std::vector<std::uint64_t> *writeData)
{
    ++e.version;
    if (!_cfg.payloadEnabled)
        return;
    if (writeData)
        e.payload = *writeData;
    else
        patternPayloadInto(e.addr, e.version, e.payload);
}

AccessResult
TinyOram::access(Addr addr, Op op, Cycles issueTime,
                 const std::vector<std::uint64_t> *writeData)
{
    SB_ASSERT(addr < _cfg.dataBlocks, "address %llu beyond data space",
              static_cast<unsigned long long>(addr));
    ++_stats.requests;
    _policy->onLlcMiss(addr);
    // The only hook that changes hotness (the Hot Address Cache
    // counts LLC misses): the stash's victim search must re-probe.
    _stash.hotnessChanged();

    // Step-1: probe the stash.
    StashEntry *hit = _stash.find(addr);
    const bool shadowReadHit =
        hit && hit->isShadow() && op == Op::Read &&
        _cfg.serveFromShadow;
    if (hit && (hit->type == BlockType::Real || shadowReadHit)) {
        AccessResult res;
        res.start = issueTime;
        res.forwardAt = issueTime + _cfg.stashHitLatency;
        res.completeAt = issueTime + _cfg.stashHitLatency;
        res.stashHit = true;
        res.onChipHit = true;
        res.usedShadow = hit->isShadow();
        res.forwardLevel = _geo.leafLevel + 1;
        ++_stats.stashHits;
        ++_stats.onChipHits;
        if (hit->isShadow())
            ++_stats.shadowStashHits;
        if (obs::TraceSession *t = trace())
            t->instant(obs::kTrackPipeline, "stash_hit", issueTime);
        if (op == Op::Write)
            applyWrite(*hit, writeData);
        return res;
    }
    // A write hitting only a shadow copy must fetch the real block:
    // fall through to a full access (DESIGN.md, deviations).

    Cycles t = std::max(issueTime, _freeAt);
    const Cycles start = t;
    unsigned posMapPaths = 0;

    obs::TraceSession *ts = trace();
    if (ts)
        ts->begin(obs::kTrackPipeline, "access", t);

    // Step-2: position-map lookup; recursive levels may require
    // preceding ORAM accesses of their own (Freecursive [14]).
    std::vector<Addr> chain = _recursion.resolve(addr, _plb);
    for (Addr pmAddr : chain) {
        StashEntry *pmHit = _stash.find(pmAddr);
        if (pmHit && pmHit->type == BlockType::Real)
            continue;  // Already on chip.
        ++_stats.posMapAccesses;
        const Cycles pmStart = t;
        AccessResult r = accessOne(pmAddr, t);
        t = r.completeAt;
        posMapPaths += r.pathAccesses;
        if (ts)
            ts->complete(obs::kTrackPipeline, "posmap_access",
                         pmStart, t - pmStart);
    }

    AccessResult res = accessOne(addr, t, op, writeData);
    res.start = start;
    res.pathAccesses += posMapPaths;
    if (res.onChipHit)
        ++_stats.onChipHits;

    if (ts)
        ts->end(obs::kTrackPipeline, res.completeAt);

    _freeAt = res.completeAt;
    return res;
}

Cycles
TinyOram::dummyAccess(Cycles issueTime)
{
    ++_stats.dummyAccesses;
    Cycles t = std::max(issueTime, _freeAt);
    const LeafLabel leaf = _dummyRng.below(_geo.numLeaves);
    PathReadOutcome read = pathRead(leaf, ReadMode::Dummy,
                                    kInvalidAddr, t);
    if (obs::TraceSession *ts = trace())
        ts->complete(obs::kTrackPipeline, "dummy_access", t,
                     read.finish - t);
    endAccess(true, read.finish);
    _freeAt = read.finish;
    return _freeAt;
}

void
TinyOram::endAccess(bool dummy, Cycles finish)
{
    ++_accessCounter;
    _policy->onRequestClassified(dummy);
    maybeEvict(finish);
    applyBackpressure(finish);
}

std::vector<std::uint64_t>
TinyOram::peekPayload(Addr addr) const
{
    SB_ASSERT(_cfg.payloadEnabled, "payload mode disabled");
    const StashEntry *entry = _stash.find(addr);
    if (entry)
        return entry->payload;
    const LeafLabel leaf = _posMap.lookup(addr);
    for (unsigned level = 0; level <= _geo.leafLevel; ++level) {
        const BucketIndex b = _tree.bucketOnPath(leaf, level);
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            const Slot &slot = _tree.slot(b, s);
            if (slot.isReal() && slot.addr == addr) {
                std::vector<std::uint64_t> out;
                _codec.decryptInto(
                    _tree.cipherView(_tree.slotIndex(b, s)), out);
                return out;
            }
        }
    }
    SB_PANIC("block %llu not found anywhere",
             static_cast<unsigned long long>(addr));
}

template <class Self, class Ar>
void
TinyOram::serde(Self &self, Ar &ar)
{
    ar.u64(self._freeAt);
    ar.u64(self._lastEvictionDone);
    ar.u64(self._accessCounter);
    ar.u64(self._evictionCounter);
    std::uint64_t nonces = self._codec.noncesIssued();
    ar.u64(nonces);

    std::uint64_t remap[4];
    std::uint64_t dummy[4];
    self._remapRng.stateWords(remap);
    self._dummyRng.stateWords(dummy);
    for (std::uint64_t &w : remap)
        ar.u64(w);
    for (std::uint64_t &w : dummy)
        ar.u64(w);
    if constexpr (Ar::kLoading) {
        self._codec.restoreNonceCounter(nonces);
        self._remapRng.setStateWords(remap);
        self._dummyRng.setStateWords(dummy);
    }

    OramStats::serde(self._stats, ar);

    ckpt::fixedLength(ar, self._realLevel.size(),
                      "realLevel table size mismatch");
    for (auto &level : self._realLevel)
        ar.u8(level);

    ar.seq(self._evictShadows,
           [&](auto &e) { StashEntry::serde(e, ar); });

    ar.nested(self._tree);
    ar.nested(self._stash);
    ar.nested(self._posMap);
    ar.nested(self._plb);

    bool hadFaults = self._faults != nullptr;
    ar.u8As(hadFaults);
    if constexpr (Ar::kLoading)
        if (hadFaults != (self._faults != nullptr))
            throw CkptMismatchError(
                "fault-injector presence differs from configuration");
    if (self._faults)
        ar.nested(*self._faults);

    ar.nested(self._health);

    // The spare store is a std::map, so it travels slot-sorted.
    std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
        spare;
    if constexpr (!Ar::kLoading)
        spare.assign(self._spare.begin(), self._spare.end());
    const std::uint64_t numSlots =
        self._tree.numBuckets() * self._cfg.slotsPerBucket;
    const std::uint64_t words = self._cfg.blockBytes / 8;
    ar.seq(spare, [&](auto &entry) {
        ar.u64(entry.first);
        ar.vecU64(entry.second);
        if constexpr (Ar::kLoading) {
            if (entry.first >= numSlots)
                throw CkptMismatchError(
                    "spare-store slot index out of range");
            if (entry.second.size() != words)
                throw CkptMismatchError(
                    "spare-store payload size mismatch");
        }
    });
    if constexpr (Ar::kLoading) {
        if (spare.size() > numSlots)
            throw CkptMismatchError("spare-store table larger than tree");
        self._spare.clear();
        for (auto &[slotIdx, payload] : spare)
            self._spare.emplace(slotIdx, std::move(payload));
    }
}

template void TinyOram::serde(const TinyOram &, ckpt::Serializer &);
template void TinyOram::serde(TinyOram &, ckpt::Deserializer &);

} // namespace sboram
