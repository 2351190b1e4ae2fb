/**
 * @file
 * The Shadow Block memory controller as one object: a Tiny ORAM with
 * its duplication policy over the DDR3 model, plus the always-on
 * flight recorder for its recovery ladder (DESIGN.md §7, "Wiring").
 *
 * Both front ends build the controller through this class: the batch
 * path (`runSystem`, which puts its timing-protected port in front)
 * and the service pipeline (svc/Service, which issues accesses
 * directly).  It owns construction, observer attachment, the flight
 * label with its panic and end-of-run publication, and the three
 * controller snapshot sections.
 */

#ifndef SBORAM_SIM_CONTROLLER_HH
#define SBORAM_SIM_CONTROLLER_HH

#include <cstdint>
#include <string>

#include "ckpt/Snapshot.hh"
#include "obs/FlightRecorder.hh"
#include "sim/System.hh"

namespace sboram {

class Controller
{
  public:
    /** Which front end drives the controller: runSystem (default
     *  flight-label prefix "sys") or svc::ServicePipeline ("svc"). */
    enum class FrontEnd : std::uint8_t { Batch, Service };

    /**
     * Build DRAM, the ShadowPolicy (Scheme::Shadow only) and the ORAM
     * from the memory-system fields of @p cfg (scheme, oram, shadow,
     * dramTiming, dramGeometry), and attach the flight recorder.  The
     * flight label is cfg.obs.label when set, else the front end's
     * prefix and the caller's config @p fingerprint in hex, so
     * artifact names are stable across processes.
     */
    Controller(const SystemConfig &cfg, FrontEnd front,
               std::uint64_t fingerprint);

    Controller(const Controller &) = delete;
    Controller &operator=(const Controller &) = delete;

    TinyOram &oram() { return _oram; }
    const DramModel &dram() const { return _dram; }
    /** The duplication policy under Scheme::Shadow, else nullptr. */
    ShadowPolicy *shadowPolicy() const { return _shadowPolicy; }
    obs::FlightRecorder &flight() { return _flight; }

    /** Hook the caller's observability hub into the ORAM. */
    void attach(obs::RunObserver *observer) { _oram.setObserver(observer); }

    /** Fatal path, before the caller rethrows: publish the ring's
     *  dump and store it in the process-wide panic slot. */
    void panicFlush() const;

    /** End of run: render the ring, publish the dump when any event
     *  was recorded, and return it. */
    std::string publishFlight() const;

    /** Write kSectionOram, kSectionPolicy (Shadow only) and
     *  kSectionDram, in that order. */
    void save(ckpt::SnapshotWriter &writer) const;

    /**
     * Restore the sections save() wrote.  Every section is fetched
     * before any is loaded, so a snapshot that lacks one throws
     * CkptMismatchError with the controller untouched.
     */
    void restore(const ckpt::SnapshotReader &reader);

  private:
    DramModel _dram;
    ShadowPolicy *_shadowPolicy = nullptr;  ///< Owned by _oram.
    TinyOram _oram;
    obs::FlightRecorder _flight;
    std::string _flightLabel;
};

} // namespace sboram

#endif // SBORAM_SIM_CONTROLLER_HH
