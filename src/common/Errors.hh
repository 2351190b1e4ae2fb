/**
 * @file
 * Exception types for recoverable simulation failures.
 *
 * The simulator historically had exactly two failure modes: fatal()
 * (configuration error, exit) and panic() (internal bug, abort).
 * Fault injection adds a third class — the simulated machine detected
 * corrupted untrusted memory and could not heal it.  That is neither a
 * configuration error nor a simulator bug: the experiment harness
 * wants to catch it, classify it, and possibly retry the point with a
 * fresh fault realisation.  These exceptions propagate through the
 * ExperimentRunner's futures (Future::get() rethrows on the caller's
 * thread).
 */

#ifndef SBORAM_COMMON_ERRORS_HH
#define SBORAM_COMMON_ERRORS_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sboram {

/** Base class for failures of a simulated run (not of the simulator). */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &msg)
        : std::runtime_error(msg) {}

    /** True when rerunning the point may succeed (transient fault). */
    virtual bool retryable() const { return false; }
};

/**
 * Detected memory corruption that the shadow-copy recovery path could
 * not heal.  Carries the machine-readable coordinates a fault-sweep
 * harness needs to classify the loss.
 */
class CorruptionError : public SimError
{
  public:
    CorruptionError(const std::string &msg, std::uint64_t accessCount,
                    std::uint64_t bucket, unsigned level,
                    bool transient)
        : SimError(msg), _accessCount(accessCount), _bucket(bucket),
          _level(level), _transient(transient) {}

    std::uint64_t accessCount() const { return _accessCount; }
    std::uint64_t bucket() const { return _bucket; }
    unsigned level() const { return _level; }
    bool retryable() const override { return _transient; }

  private:
    std::uint64_t _accessCount;
    std::uint64_t _bucket;
    unsigned _level;
    bool _transient;
};

/**
 * Base class for checkpoint/restore failures (src/ckpt).  A corrupt
 * or unreadable snapshot is never retryable by itself — the recovery
 * tiers (previous generation, then deterministic replay from the
 * trace start) handle it; these types exist so each rejection reason
 * is distinguishable by the harness and by tests.
 */
class CheckpointError : public SimError
{
  public:
    explicit CheckpointError(const std::string &msg) : SimError(msg) {}
};

/** The snapshot file cannot be opened/read/written at the OS level. */
class CkptIoError : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/** The file does not start with the snapshot magic. */
class CkptBadMagicError : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/**
 * The file is shorter than its header promises, a section overruns
 * the payload, or a serialized field runs past its section — a torn
 * write or a truncated copy.
 */
class CkptTruncatedError : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/** The PRF-MAC over the snapshot bytes does not verify (bit rot or
 *  deliberate tampering). */
class CkptChecksumError : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/** The snapshot was written by an incompatible format version. */
class CkptVersionError : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/** The snapshot verifies but belongs to a different experiment point
 *  (fingerprint mismatch) or lacks an expected section. */
class CkptMismatchError : public CheckpointError
{
  public:
    using CheckpointError::CheckpointError;
};

/**
 * The run was stopped on purpose (SIGINT/SIGTERM, or the
 * interruptAfterAccesses test seam) after writing a final
 * checkpoint.  Not retryable: the point is meant to be *resumed*
 * from its snapshot by a relaunch, not rerun from scratch.
 */
class InterruptedError : public SimError
{
  public:
    InterruptedError(const std::string &msg, std::uint64_t accessesDone)
        : SimError(msg), _accessesDone(accessesDone) {}

    /** CPU trace records consumed before the stop. */
    std::uint64_t accessesDone() const { return _accessesDone; }

  private:
    std::uint64_t _accessesDone;
};

/**
 * The service-layer liveness watchdog observed a scheduler that made
 * no progress (no admission, no completion, no virtual-time advance)
 * for its configured bound of iterations — a wedged pipeline.  The
 * run fails loudly with the queue forensics a post-mortem needs
 * instead of hanging; never retryable, the wedge is deterministic.
 */
class ServiceStallError : public SimError
{
  public:
    ServiceStallError(const std::string &msg, std::uint64_t queueDepth,
                      std::uint64_t inFlight,
                      std::uint64_t requestsShed,
                      std::uint64_t deadlineMisses, std::uint64_t served)
        : SimError("service scheduler stalled: " + msg + " (queue " +
                   std::to_string(queueDepth) + ", in-flight " +
                   std::to_string(inFlight) + ", shed " +
                   std::to_string(requestsShed) + ", deadline misses " +
                   std::to_string(deadlineMisses) + ", served " +
                   std::to_string(served) + ")"),
          _queueDepth(queueDepth), _inFlight(inFlight),
          _requestsShed(requestsShed), _deadlineMisses(deadlineMisses),
          _served(served) {}

    /** Requests sitting in the admission queue at the stall. */
    std::uint64_t queueDepth() const { return _queueDepth; }
    /** Requests eligible to issue (past notBefore) at the stall. */
    std::uint64_t inFlight() const { return _inFlight; }
    std::uint64_t requestsShed() const { return _requestsShed; }
    std::uint64_t deadlineMisses() const { return _deadlineMisses; }
    /** Requests completed before the stall. */
    std::uint64_t served() const { return _served; }

  private:
    std::uint64_t _queueDepth;
    std::uint64_t _inFlight;
    std::uint64_t _requestsShed;
    std::uint64_t _deadlineMisses;
    std::uint64_t _served;
};

/**
 * The invariant watchdog observed a violated controller invariant
 * (checkInvariants failed mid-run).  Never retryable: the state
 * machine diverged deterministically.
 */
class InvariantViolationError : public SimError
{
  public:
    InvariantViolationError(const std::string &violation,
                            std::uint64_t accessCount)
        : SimError("invariant violation after " +
                   std::to_string(accessCount) + " accesses: " +
                   violation),
          _violation(violation), _accessCount(accessCount) {}

    const std::string &violation() const { return _violation; }
    std::uint64_t accessCount() const { return _accessCount; }

  private:
    std::string _violation;
    std::uint64_t _accessCount;
};

} // namespace sboram

#endif // SBORAM_COMMON_ERRORS_HH
