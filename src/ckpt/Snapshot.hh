/**
 * @file
 * Versioned, integrity-framed snapshot container (DESIGN.md §7).
 *
 * A snapshot file is:
 *
 *     magic "SBCKPT01"                         8 B
 *     format version                           u32
 *     section count                            u32
 *     sequence number (generation)             u64
 *     point fingerprint                        u64
 *     payload byte count                       u64
 *     sections: { id u32, length u64, bytes }  payload
 *     PRF-MAC over all preceding bytes         u64
 *
 * Verification order at load — each failure is a distinct typed error
 * from common/Errors.hh so tests and the recovery tiers can tell torn
 * writes from tampering from version skew:
 *
 *     short/absent header  -> CkptTruncatedError
 *     wrong magic          -> CkptBadMagicError
 *     wrong version        -> CkptVersionError
 *     size != promised     -> CkptTruncatedError
 *     MAC mismatch         -> CkptChecksumError
 *     section overrun      -> CkptTruncatedError
 */

#ifndef SBORAM_CKPT_SNAPSHOT_HH
#define SBORAM_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/Serde.hh"

namespace sboram {
namespace ckpt {

/** Current snapshot format version.  Version 7: a completed point's
 *  kSectionResult carries the run's OramStats and StashStats whole,
 *  through their own serde, in place of a hand-picked subset; no
 *  snapshot section changed, and a version-6 .done marker is rejected
 *  so its point reruns.  Version 6: service snapshots
 *  gained kSectionPort, since every service access now issues through
 *  the controller's port.  Version 5: histograms gained a
 *  binning-kind tag in their serialized form (log2 is now the only
 *  kind the loader accepts) and the new kSectionReqObs carries the
 *  request-observability state (timeline pool, one latency sample
 *  per stage, exemplar reservoir, SLO monitor, flight recorder).
 *  Version 4: the RecoveryManager state grew the service-pressure
 *  latch, and service-mode snapshots add the kSectionSvc cursor
 *  (arrival-generator state, admitted queue, latency sample).
 *  Version 3 added the recovery ladder's state, the tier-3 reseed
 *  generation and resilience counters.  Old snapshots are rejected
 *  with CkptVersionError before any state is mutated and fall back
 *  per the existing recovery tiers. */
constexpr std::uint32_t kSnapshotVersion = 7;

/** Well-known section ids used by sim/System and friends. */
enum SectionId : std::uint32_t
{
    kSectionCpu = 1,      ///< CpuCursor (trace position + core state).
    kSectionPort = 2,     ///< Controller issue port (slot grid, busy times).
    kSectionOram = 3,     ///< TinyOram and everything under it.
    kSectionPolicy = 4,   ///< ShadowPolicy / partition / hot cache.
    kSectionDram = 5,     ///< DramModel bank/rank/channel timing.
    kSectionMetrics = 6,  ///< Partial RunMetrics (missRetireTimes).
    kSectionMem = 7,      ///< InsecureMemory baseline state.
    kSectionObs = 8,      ///< Observability counters/sampler (optional).
    kSectionSvc = 9,      ///< Service pipeline (arrivals cursor, queue).
    kSectionReqObs = 10,  ///< Request observability (timelines, exemplars,
                          ///< SLO monitor, flight recorder).
    kSectionResult = 100, ///< Final RunMetrics of a completed point.
};

/**
 * Accumulates named sections and emits the framed, MAC'd byte image.
 * Sections are written in the order they were first opened.
 */
class SnapshotWriter
{
  public:
    /** Serializer for the given section (created on first use). */
    Serializer &section(std::uint32_t id);

    // The save side of a snapshot layout (see loadLayout below).
    template <class Body>
    void section(std::uint32_t id, Body &&body) { body(section(id)); }
    template <class Body>
    void optional(std::uint32_t id, Body &&body) { body(section(id)); }

    /**
     * Frame everything into a verifiable byte image.  The writer is
     * spent afterwards.
     */
    std::vector<std::uint8_t> finish(std::uint64_t seq,
                                     std::uint64_t fingerprint);

  private:
    std::vector<std::uint32_t> _order;
    std::map<std::uint32_t, Serializer> _sections;
};

/**
 * Parses and verifies a snapshot image.  The constructor throws one
 * of the typed checkpoint errors above on any defect; a constructed
 * reader is fully verified.  Keeps its own copy of the bytes so
 * section() deserializers stay valid.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::vector<std::uint8_t> image);

    std::uint64_t seq() const { return _seq; }
    std::uint64_t fingerprint() const { return _fingerprint; }

    bool hasSection(std::uint32_t id) const;

    /** Reader over a section; throws CkptMismatchError if absent. */
    Deserializer section(std::uint32_t id) const;

  private:
    std::vector<std::uint8_t> _image;
    std::uint64_t _seq = 0;
    std::uint64_t _fingerprint = 0;
    /// id -> (offset into _image, length).
    std::map<std::uint32_t, std::pair<std::size_t, std::size_t>> _sections;
};

/**
 * Snapshot layouts (DESIGN.md §7, "Serde convention").  A layout is a
 * generic callable over an io object that names each of its sections
 * once, in write order, with the section's serde body:
 *
 *     auto layout = [&](auto &io) {
 *         io.section(kSectionCpu, [&](auto &ar) { ar.nested(cursor); });
 *         io.optional(kSectionObs, [&](auto &ar) { ar.nested(obs); });
 *     };
 *
 * Saving runs it once over the SnapshotWriter itself.  loadLayout()
 * runs it twice over a SectionLoader: a presence pass that throws
 * CkptMismatchError naming the first missing required section, then
 * the load pass, so a snapshot that lacks a section is rejected
 * before anything changes.  An optional section loads only when
 * present.  A check across sections goes in the loading side of the
 * later section's body, which runs after the earlier one has loaded.
 */
struct SectionLoader
{
    const SnapshotReader &reader;
    bool load;  ///< False: the presence pass.

    template <class Body>
    void
    section(std::uint32_t id, Body &&body)
    {
        Deserializer in = reader.section(id);  // Throws when absent.
        if (load)
            body(in);
    }

    template <class Body>
    void
    optional(std::uint32_t id, Body &&body)
    {
        if (reader.hasSection(id))
            section(id, body);
    }
};

/** Load @p layout's sections once every required one is known
 *  present. */
template <class Layout>
void
loadLayout(const SnapshotReader &reader, const Layout &layout)
{
    SectionLoader check{reader, false};
    layout(check);
    SectionLoader load{reader, true};
    layout(load);
}

/**
 * Crash-consistent file write: temp file in the same directory,
 * fsync, atomic rename over the target, fsync of the directory.
 * Throws CkptIoError on any OS-level failure.
 */
void writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/** Whole-file read; throws CkptIoError if unreadable or absent. */
std::vector<std::uint8_t> readFile(const std::string &path);

} // namespace ckpt
} // namespace sboram

#endif // SBORAM_CKPT_SNAPSHOT_HH
