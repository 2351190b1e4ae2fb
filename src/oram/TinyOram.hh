/**
 * @file
 * The Tiny ORAM controller (paper Section II-C), with the Shadow
 * Block extension points.
 *
 * Implements the six-step access protocol: stash probe, position-map
 * lookup (recursive with PLB), path read with early forwarding of the
 * intended block, eviction-rate-A scheduling, reverse-lexicographic
 * eviction path selection, and the greedy path write — plus the
 * modified path read/write of Algorithms 1 and 2 (shadow blocks are
 * inserted into the stash on reads; dummy slots may be filled with
 * duplicated data on writes).
 *
 * Timing is produced by the DDR3 model: a path read yields a
 * completion time per slot, and the forward time of a request is the
 * completion of the *earliest* slot holding the intended address —
 * the quantity shadow blocks improve.
 */

#ifndef SBORAM_ORAM_TINYORAM_HH
#define SBORAM_ORAM_TINYORAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "Block.hh"
#include "DuplicationPolicy.hh"
#include "OramConfig.hh"
#include "OramTree.hh"
#include "Plb.hh"
#include "PositionMap.hh"
#include "RecursivePosMap.hh"
#include "Stash.hh"
#include "TraceSink.hh"
#include "common/Rng.hh"
#include "common/Types.hh"
#include "common/VectorPool.hh"
#include "crypto/Otp.hh"
#include "mem/AddressMap.hh"
#include "mem/DramModel.hh"

namespace sboram {

namespace obs {
class FlightRecorder;
class RunObserver;
class TraceSession;
}

/** Timing and provenance of one served LLC request. */
struct AccessResult
{
    Cycles start = 0;      ///< Controller began serving.
    Cycles forwardAt = 0;  ///< Intended data forwarded to the LLC.
    Cycles completeAt = 0; ///< Controller free again.
    bool stashHit = false; ///< Served without any path access.
    bool onChipHit = false;///< Stash or treetop supplied the data.
    bool usedShadow = false; ///< A shadow copy supplied the data.
    unsigned forwardLevel = 0; ///< Tree level data came from.
    unsigned pathAccesses = 0; ///< Path reads performed (incl. posmap).
};

/** Controller-level statistics. */
struct OramStats
{
    std::uint64_t requests = 0;       ///< Real LLC requests served.
    std::uint64_t stashHits = 0;
    std::uint64_t shadowStashHits = 0;
    std::uint64_t onChipHits = 0;     ///< Fig. 16 numerator.
    std::uint64_t shadowForwards = 0; ///< Path reads advanced by shadow.
    std::uint64_t pathReads = 0;
    std::uint64_t pathWrites = 0;
    std::uint64_t dummyAccesses = 0;
    std::uint64_t posMapAccesses = 0;
    std::uint64_t shadowsWritten = 0;
    std::uint64_t evictions = 0;
    /** Sum of (levels advanced) over shadow-forwarded reads. */
    std::uint64_t levelsAdvanced = 0;
    /** Fault-injection accounting (payload mode, FaultConfig). */
    std::uint64_t faultsInjected = 0;      ///< Corruptions planted.
    std::uint64_t faultsDetected = 0;      ///< Tag failures on read.
    std::uint64_t faultsRecovered = 0;     ///< Healed via duplication.
    std::uint64_t faultsUnrecoverable = 0; ///< No intact copy left.
    /** Recovery-ladder accounting (HealthConfig; all zero when the
     *  ladder is disabled). */
    std::uint64_t slotsQuarantined = 0;    ///< Tier-1 quarantines.
    std::uint64_t quarantineEvacuations = 0; ///< Payloads parked in spare.
    std::uint64_t degradedEntries = 0;     ///< Tier-2 mode entries.
    std::uint64_t degradedTicks = 0;       ///< Accesses spent degraded.
    std::uint64_t emergencyEvictions = 0;  ///< Backpressure sweeps.

    /** Wire format (inside TinyOram's snapshot body and kSectionResult). */
    template <class Self, class Ar>
    static void
    serde(Self &s, Ar &ar)
    {
        ar.u64(s.requests);
        ar.u64(s.stashHits);
        ar.u64(s.shadowStashHits);
        ar.u64(s.onChipHits);
        ar.u64(s.shadowForwards);
        ar.u64(s.pathReads);
        ar.u64(s.pathWrites);
        ar.u64(s.dummyAccesses);
        ar.u64(s.posMapAccesses);
        ar.u64(s.shadowsWritten);
        ar.u64(s.evictions);
        ar.u64(s.levelsAdvanced);
        ar.u64(s.faultsInjected);
        ar.u64(s.faultsDetected);
        ar.u64(s.faultsRecovered);
        ar.u64(s.faultsUnrecoverable);
        ar.u64(s.slotsQuarantined);
        ar.u64(s.quarantineEvacuations);
        ar.u64(s.degradedEntries);
        ar.u64(s.degradedTicks);
        ar.u64(s.emergencyEvictions);
    }
};

class TinyOram
{
  public:
    /**
     * @param cfg ORAM configuration (geometry is derived from it).
     * @param dram DDR3 model; not owned.
     * @param policy Duplication policy; pass nullptr for baseline.
     */
    TinyOram(const OramConfig &cfg, DramModel &dram,
             std::unique_ptr<DuplicationPolicy> policy = nullptr);

    /**
     * Serve one LLC miss.
     *
     * @param addr Program block address (must be < dataBlocks).
     * @param op Read or write.
     * @param issueTime When the request reached the controller.
     * @param writeData Optional payload for writes (payload mode).
     */
    AccessResult access(Addr addr, Op op, Cycles issueTime,
                        const std::vector<std::uint64_t> *writeData =
                            nullptr);

    /**
     * Perform a dummy ORAM request (timing protection): a path read
     * of a uniformly random path whose contents are discarded.
     * Returns the completion time.
     */
    Cycles dummyAccess(Cycles issueTime);

    /** Read the current payload of @p addr (testing; payload mode). */
    SB_SECRET std::vector<std::uint64_t> peekPayload(Addr addr) const;

    /**
     * True when access(addr, op, ...) would be served from the stash
     * without launching any ORAM request (used by the timing
     * protection front-end: stash hits consume no request slot).
     */
    bool
    wouldHitStash(Addr addr, Op op) const
    {
        const StashEntry *e = _stash.find(addr);
        return e && (e->type == BlockType::Real ||
                     (e->isShadow() && op == Op::Read &&
                      _cfg.serveFromShadow));
    }

    /** Attach an observer of the externally visible trace. */
    void setTraceSink(TraceSink *sink) { _traceSink = sink; }

    /**
     * Attach the run's observability hub (trace spans + instant
     * events).  Null (the default) disables every hook: each site is
     * a single branch on this pointer, like _traceSink.  Planted and
     * re-applied faults show up as trace instants.
     */
    void setObserver(obs::RunObserver *obs) { _obs = obs; }

    /**
     * Attach a flight recorder for recovery-ladder events (slot
     * quarantines, degraded-mode transitions).  Null (the default)
     * disables the hooks; like the trace sink, the recorder only ever
     * observes control decisions — never addresses or path positions.
     */
    void setFlightRecorder(obs::FlightRecorder *rec)
    {
        _flight = rec;
    }

    /** Earliest time the controller can begin a new request. */
    Cycles freeAt() const { return _freeAt; }

    const OramStats &stats() const { return _stats; }
    /** The fault injector, or nullptr when injection is disabled. */
    const FaultInjector *faultInjector() const { return _faults.get(); }
    /** Recovery-ladder state (quarantine table, degraded latch). */
    const RecoveryManager &health() const { return _health; }

    /**
     * Service-layer entry into the recovery ladder: admission-queue
     * watermarks latch/release duplication suppression (but never the
     * tier-2 eviction sweeps — those would add trace events).
     * Returns +1 on latch, -1 on release, 0 when unchanged.
     */
    int noteServicePressure(bool active)
    {
        return _health.noteServicePressure(active);
    }

    /** Blocks currently remapped into the on-chip spare store. */
    std::size_t spareStoreSize() const { return _spare.size(); }

    /**
     * Tier-3 hook: after sim/System rolls the simulation back to a
     * snapshot, replaying the same cursor against the same fault
     * schedule would re-corrupt the same slot and loop forever.
     * Shift the injector to its next deterministic realization.  The
     * generation floor keeps repeated rollbacks to the same snapshot
     * from re-drawing an already-failed schedule (the restore rewinds
     * the injector's serialized generation counter).
     */
    void shiftFaultRealization(std::uint32_t minGeneration = 0);

    /**
     * Patrol scrub over the whole stored tree (payload mode only):
     * verify every valid slot's integrity tag, reclaim corrupt shadow
     * copies, and heal corrupt real blocks from a same-version shadow
     * where one survives, searched as the read path searches, along
     * the block's own path (recoverRealPayload).  Returns true when
     * every real block verified (possibly after healing) — i.e. a
     * snapshot taken now carries no latent corruption.  An unhealable
     * corrupt real slot is left untouched (the next path read does
     * the full unrecoverable accounting) and makes the scrub report
     * false so the caller can skip committing a poisoned snapshot.
     */
    bool scrubStorage();

    const Stash &stash() const { return _stash; }
    const OramTree &tree() const { return _tree; }
    const PositionMap &posMap() const { return _posMap; }
    const Plb &plb() const { return _plb; }
    const OramGeometry &geometry() const { return _geo; }
    const OramConfig &config() const { return _cfg; }
    DuplicationPolicy &policy() { return *_policy; }
    DramModel &dram() { return _dram; }

    /** Expected DRAM latency of one full path read from an idle
     *  channel state (used to size timing-protection rates). */
    Cycles estimatePathReadLatency();

    /** Number of tree levels served on-chip by the treetop cache. */
    unsigned treetopLevels() const { return _cfg.treetopLevels; }

    /**
     * Tree level of an address's real copy, or 0xff when it lives in
     * the stash (exposed for the invariant checker).
     */
    std::uint8_t
    realLevelOf(Addr addr) const
    {
        return _realLevel[addr];
    }

    /**
     * Checkpoint the whole controller (tree, stash, position map,
     * PLB, RNG/nonce state, counters, eviction buffers, fault-
     * injector cursor) at an access boundary.  The duplication
     * policy's own state is checkpointed separately by the system
     * layer, which knows its concrete type.
     */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    /** Restore a controller built from the identical OramConfig. */
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    struct PathReadOutcome
    {
        Cycles finish = 0;
        Cycles forwardAt = kNoCycles;
        unsigned forwardLevel = 0;
        bool usedShadow = false;
        bool foundInTreetop = false;
    };

    /**
     * The three externally indistinguishable kinds of path read.
     *
     * Request: RAW read-only access — consume the intended block and
     * all of its shadow copies, opportunistically copy other shadow
     * blocks into the stash, leave all other real blocks in place.
     * Dummy: read and discard everything (timing protection).
     * Evict: Step-5 — move every block on the path into the stash.
     */
    enum class ReadMode { Request, Dummy, Evict };

    SB_HOT PathReadOutcome pathRead(LeafLabel leaf, ReadMode mode,
                                    Addr wantAddr, Cycles startTime);

    /**
     * A slot's integrity tag failed on this path read (Tiny ORAM
     * baseline [18]).  A corrupt shadow is harmless — the real copy
     * is authoritative — so it is reclaimed, @p payload goes back to
     * the pool, and the result is false (drop the entry).  A corrupt
     * real has @p payload rebuilt from a same-version shadow (the
     * duplication the policies keep for latency doubles as
     * redundancy) or, failing that, handed to handleUnrecoverable;
     * the result is true.  Trace instants go on @p track at @p at.
     */
    SB_HOT bool healTagFailure(Slot &slot, std::uint64_t slotIdx,
                               BucketIndex bucket, unsigned level,
                               LeafLabel leaf, Cycles at, unsigned track,
                               std::vector<std::uint64_t> &payload);

    /**
     * Greedy path write with duplication (Algorithm 1), as four
     * phases over the per-write scratch: offerShadows, placeGreedy,
     * fillDummies, flushWrite.
     */
    SB_HOT Cycles pathWrite(LeafLabel leaf, Cycles startTime);

    /** Write phase 1 (recirculateShadows only): offer the stash and
     *  eviction-buffer shadows to the duplication policy. */
    SB_HOT void offerShadows(LeafLabel leaf);

    /** Write phase 2: greedy placement of stash reals, leaf to root
     *  (deepest possible); the slots left over go to _dummyScratch. */
    SB_HOT void placeGreedy(LeafLabel leaf);

    /** Write phase 3: fill the dummy slots root side first with the
     *  policy's shadow choices (Rule-2 re-checked), or blank them. */
    SB_HOT void fillDummies();

    /** Write phase 4: park or batch-encrypt every placed slot,
     *  re-apply stuck cells (stamped at the path write's
     *  @p startTime), reset the payload buffers and return unplaced
     *  eviction-buffer shadows to the stash. */
    SB_HOT void flushWrite(Cycles startTime);

    /** Dense _placedBufs slot of @p addr's payload in this write,
     *  assigned on first use. */
    SB_HOT std::uint32_t placedBufIdx(Addr addr);

    /** Index of @p addr in _evictShadows, or its size when absent. */
    SB_HOT std::size_t evictShadowIndex(Addr addr) const;

    /** Step-5/6 eviction: one path read and write on the next
     *  reverse-lexicographic leaf, draining in the background. */
    void evictPath(Cycles time);

    /** Run evictPath if the access counter says so. */
    void maybeEvict(Cycles time);

    /**
     * Tier-2 stash backpressure, run after every access's eviction
     * slot: update the degraded-mode latch from real-stash occupancy
     * and, while degraded, run one emergency evictPath sweep.
     * Trace-neutral by construction — the latch depends only on
     * occupancy, which a clean run under the same config follows
     * identically.
     */
    void applyBackpressure(Cycles time);

    /** The end of every path access, real or @p dummy: the access
     *  counter, the DRI classification, the eviction slot and tier-2
     *  backpressure, all at the read's @p finish. */
    void endAccess(bool dummy, Cycles finish);

    /** One request-serving ORAM access for @p addr. */
    AccessResult accessOne(Addr addr, Cycles startTime,
                           Op op = Op::Read,
                           const std::vector<std::uint64_t>
                               *writeData = nullptr);

    LeafLabel randomLeaf() { return _remapRng.below(_geo.numLeaves); }

    /** Reverse-lexicographic eviction leaf sequence. */
    LeafLabel nextEvictionLeaf();

    /** Plant this path access's scheduled fault, if any; its trace
     *  instant goes on the read's @p track at its start @p at. */
    void maybeInjectFaults(LeafLabel leaf, unsigned track, Cycles at);

    /**
     * Self-healing (the duplication mechanism as a reliability win):
     * fill @p out with the payload of @p slot's address from a
     * same-version shadow copy — stash, eviction path buffer, or a
     * tree slot above @p level on the path to @p leaf (InvariantChecker
     * invariants 1 and 3 guarantee those are the only places one can
     * live).  The read path and the scrub both heal through here.
     */
    bool recoverRealPayload(const Slot &slot, unsigned level,
                            LeafLabel leaf,
                            std::vector<std::uint64_t> &out);

    /**
     * Account one detected tag failure of @p slotIdx: the detected
     * and recovered (or unrecoverable) counters, the tier-1 failure
     * count with its quarantine flight record, and — when @p t is
     * given — the matching trace instants on @p track at @p at.
     */
    SB_HOT void countFault(std::uint64_t slotIdx, Cycles at, bool recovered,
                           obs::TraceSession *t = nullptr,
                           unsigned track = 0);

    /** Count a corrupt shadow as detected and recovered, and free
     *  its slot. */
    SB_HOT void reclaimCorruptShadow(Slot &slot, std::uint64_t slotIdx,
                                     Cycles at, obs::TraceSession *t = nullptr,
                                     unsigned track = 0);

    /**
     * Tier-1 spare-store remap: when @p slotIdx is quarantined, park
     * @p plain on chip instead of writing the bad cell (whose stripe
     * stays erased) and return true.
     */
    SB_HOT bool parkIfQuarantined(std::uint64_t slotIdx,
                                  const std::uint64_t *plain);

    /** Let a stuck cell re-corrupt @p slotIdx's fresh ciphertext;
     *  true (and counted as injected) when it did.  The trace instant
     *  goes on the caller's @p track at the caller's time @p at. */
    SB_HOT bool reapplyStuckCell(std::uint64_t slotIdx, Cycles at,
                                 unsigned track);

    /** Apply an LLC write to @p e: bump its version and store
     *  @p writeData (or the version's pattern) in payload mode. */
    void applyWrite(StashEntry &e,
                    const std::vector<std::uint64_t> *writeData);

    /** The run's trace session, or null when none is attached. */
    SB_HOT obs::TraceSession *trace() const;

    /**
     * All copies of @p slot's block are gone.  Panic, throw
     * CorruptionError, or zero-fill and count, per
     * FaultConfig::onUnrecoverable.
     */
    void handleUnrecoverable(const Slot &slot, BucketIndex bucket,
                             unsigned level,
                             std::vector<std::uint64_t> &payload);

    /**
     * Schedule the off-chip levels (treetopLevels..leafLevel) of the
     * path to @p leaf on @p dram.  Each sub-tree group of
     * AddressMap::subtreeLevels() levels shares one DRAM row, so it is
     * one mapBucket and one DramModel::scheduleRun: root to leaf for
     * a read, leaf to root for a write.  When @p levelReady is given,
     * entry `level` receives the completion of that level's slot 0;
     * slot s completes s * DramModel::runStride(busTime) later.
     *
     * @return Completion time of the path's last DRAM access.
     */
    Cycles schedulePath(DramModel &dram, LeafLabel leaf, Cycles start,
                        bool isWrite, Cycles busTime,
                        Cycles *levelReady) const;

    void initializeTree();
    /** Deterministic payload of @p addr at @p version, written into
     *  @p out (capacity reused). */
    void patternPayloadInto(Addr addr, std::uint32_t version,
                            std::vector<std::uint64_t> &out) const;

    OramConfig _cfg;
    OramGeometry _geo;
    OramTree _tree;
    Stash _stash;
    PositionMap _posMap;
    RecursivePosMap _recursion;
    Plb _plb;
    DramModel &_dram;
    AddressMap _addressMap;
    OtpCodec _codec;
    std::unique_ptr<DuplicationPolicy> _policy;
    /** Deterministic memory-fault source (null when rate is 0). */
    std::unique_ptr<FaultInjector> _faults;
    /** Tiers 1–2 of the recovery ladder (quarantine, backpressure). */
    RecoveryManager _health;
    /**
     * Tier-1 spare store: plaintext payloads of blocks whose assigned
     * slot is quarantined, keyed by slot index.  A quarantined cell
     * keeps participating in placement exactly as a healthy one — its
     * contents just live on-chip instead of in the bad ciphertext
     * stripe — so quarantine never shrinks tree capacity, never
     * perturbs stash occupancy, and therefore never perturbs the
     * external access trace (the DRAM-sparing analogue of remapping a
     * bad row to a spare).  Ordered map: snapshot serde iterates it
     * deterministically.
     */
    std::map<std::uint64_t, std::vector<std::uint64_t>> _spare;
    Rng _remapRng;
    Rng _dummyRng;

    Cycles _freeAt = 0;
    /** Completion of the most recent background eviction write. */
    Cycles _lastEvictionDone = 0;
    std::uint64_t _accessCounter = 0;  ///< For eviction rate A.
    std::uint64_t _evictionCounter = 0;
    /**
     * Tree level of each address's real copy (kInStash sentinel when
     * it is in the stash).  Maintained so shadow placements can
     * respect Rule-2 at all times and for the invariant checker.
     */
    std::vector<std::uint8_t> _realLevel;
    /**
     * Shadow copies vacuumed by the in-flight eviction read, held in
     * a path buffer until the matching path write re-places them —
     * routing them through the stash would expose them to capacity
     * displacement before they can circulate.
     */
    std::vector<StashEntry> _evictShadows;
    TraceSink *_traceSink = nullptr;
    obs::RunObserver *_obs = nullptr;
    obs::FlightRecorder *_flight = nullptr;
    OramStats _stats;

    /** Recycled payload buffers (see VectorPool) — path reads pull
     *  from here instead of allocating one vector per block. */
    VectorPool _payloadPool;
    /** Path-read DRAM completion of slot 0 of each off-chip level
     *  (sized leafLevel + 1 at construction; see schedulePath). */
    std::vector<Cycles> _levelReady;
    /** Path-read crypto batch: the ciphertexts the read decrypts, in
     *  main-loop order, and their plaintexts and verdicts. */
    std::vector<CipherView> _readViews;
    std::vector<std::uint64_t> _readPlains;
    std::vector<std::uint8_t> _readOk;
    /** Per-write scratch: which _evictShadows went back into the
     *  tree (parallel to _evictShadows). */
    std::vector<char> _evictShadowPlaced;

    /** One empty slot found by placeGreedy, to be filled (or
     *  explicitly blanked) by fillDummies. */
    struct DummySlot
    {
        BucketIndex bucket;
        unsigned slot;
        unsigned level;
    };
    /** One slot whose re-encryption is deferred to flushWrite. */
    struct PendingEncrypt
    {
        std::uint64_t slotIdx;
        std::uint32_t bufIdx;  ///< Index into _placedBufs.
    };

    // Per-path-access scratch, kept across calls so the steady state
    // allocates nothing (vectors only ever grow to the path size /
    // the per-write candidate count and stay there).
    std::vector<BucketIndex> _pathBuckets;   ///< Root-first path buckets.
    std::vector<DummySlot> _dummyScratch;
    std::vector<std::uint64_t> _faultTargetScratch;
    Stash::EvictionPlan _planScratch;
    /**
     * Payloads of this path write's duplication candidates.  Indexed
     * by dense buffer slot; _placedIdx maps address -> slot+1 (0 =
     * absent) and is sized to the whole address space at
     * construction, with _placedAddrs recording which entries to
     * reset afterwards.
     */
    std::vector<std::uint32_t> _placedIdx;
    std::vector<Addr> _placedAddrs;
    std::vector<std::vector<std::uint64_t>> _placedBufs;
    /** High-water count of constructed _placedBufs entries — the
     *  structural mirror of _placedBufs.size(), kept separate so
     *  cache-growth decisions never read the payload-bearing
     *  vector. */
    std::size_t _placedBufsMade = 0;
    /** Slots awaiting the batched re-encryption, in the exact order
     *  per-slot encryption used to run (the nonce sequence is a
     *  determinism contract). */
    std::vector<PendingEncrypt> _pendingEnc;
    std::vector<const std::uint64_t *> _encPlains;
    std::vector<CipherRef> _encRefs;
};

} // namespace sboram

#endif // SBORAM_ORAM_TINYORAM_HH
