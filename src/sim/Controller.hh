/**
 * @file
 * The Shadow Block memory controller as one object: a Tiny ORAM with
 * its duplication policy over the DDR3 model, the issue port in front
 * of it, and the always-on flight recorder for its recovery ladder
 * (DESIGN.md §7, "Wiring").
 *
 * Both front ends build the controller through this class and issue
 * every access through its port: the batch path (`runSystem`, whose
 * CPU model sees the port as a MemoryPort) and the service pipeline
 * (svc/Service).  The port holds the constant-rate timing protection
 * of Fletcher et al. [16] (real or dummy requests launch on a
 * fixed-interval slot grid; stash hits consume no slot), the
 * virtual-dummy classification of idle gaps for the DRI counter, and
 * the opt-in invariant watchdog.  The controller also owns
 * construction, observer attachment, the flight label with its panic
 * and end-of-run publication, and a snapshot layout of four sections
 * that each run loop's own layout includes.
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
     * Build DRAM from the fixed DDR3-1333 constants
     * (SystemConfig::dramTiming, dramGeometry), the ShadowPolicy
     * (Scheme::Shadow only) and the ORAM from the memory-system
     * fields of @p cfg (scheme, oram, shadow), the port from its
     * timing fields
     * (timingProtection, tpInterval, virtualDummies,
     * watchdogInterval), and attach the flight recorder.  The flight
     * label is cfg.obs.label when set, else the front end's prefix
     * and the caller's config @p fingerprint in hex, so artifact
     * names are stable across processes.
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

    /**
     * Issue one access through the port.  A stash hit is served at
     * once; any other request first fires a dummy in every elapsed
     * timing-protection slot and takes the next slot boundary, or,
     * without timing protection, lets the DRI counter see a long idle
     * gap as virtual dummies.
     */
    AccessResult issue(Addr addr, Op op, Cycles issueTime);

    /** Cycles spent serving real path accesses (paper Eq. 1's data
     *  access time). */
    Cycles dataBusy() const { return _dataBusy; }

    /** Fatal path, before the caller rethrows: publish the ring's
     *  dump and store it in the process-wide panic slot. */
    void panicFlush() const;

    /** End of run: render the ring, publish the dump when any event
     *  was recorded, and return it. */
    std::string publishFlight() const;

    /**
     * The controller's snapshot layout (ckpt/Snapshot.hh):
     * kSectionPort, kSectionOram, kSectionPolicy (Shadow only) and
     * kSectionDram, in that order.  Once kSectionOram has loaded, the
     * port's dummy count must equal the restored ORAM's, else
     * CkptMismatchError.  A run loop calls this inside its own layout
     * with Self = Controller; save() with Self = const Controller.
     */
    template <class Self, class Io>
    static void sections(Self &self, Io &io);

    /** Write sections() alone. */
    void save(ckpt::SnapshotWriter &writer) const { sections(*this, writer); }

    /** Load sections() alone: a snapshot that lacks one throws
     *  CkptMismatchError with the controller untouched. */
    void
    restore(const ckpt::SnapshotReader &reader)
    {
        ckpt::loadLayout(reader, [this](auto &io) { sections(*this, io); });
    }

  private:
    DramModel _dram;
    ShadowPolicy *_shadowPolicy = nullptr;  ///< Owned by _oram.
    TinyOram _oram;
    obs::FlightRecorder _flight;
    std::string _flightLabel;

    bool _tp;
    bool _virtualDummies;
    std::uint64_t _watchdogInterval;
    /** TP slot interval, else the idle gap one virtual dummy spans. */
    Cycles _interval;
    std::uint64_t _sinceWatchdog = 0;
    Cycles _nextSlot = 0;
    Cycles _lastComplete = 0;
    Cycles _dataBusy = 0;
};

} // namespace sboram

#endif // SBORAM_SIM_CONTROLLER_HH
