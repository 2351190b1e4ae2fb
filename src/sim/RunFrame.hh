/**
 * @file
 * The frame every run loop shares: batch ORAM and batch Insecure
 * (`runSystem`) and the service pipeline (svc/Service).  It owns the
 * optional RunObserver, the checkpoint cadence, resume through
 * CheckpointSession::loadLatest and the optional kSectionObs, written
 * last and restored last (DESIGN.md §7, "Wiring").  Each loop binds
 * one snapshot layout (ckpt/Snapshot.hh) that lists its own sections
 * once, and its own count: accesses done for batch, resolved requests
 * for the service.
 */

#ifndef SBORAM_SIM_RUNFRAME_HH
#define SBORAM_SIM_RUNFRAME_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/Checkpoint.hh"
#include "common/Types.hh"
#include "obs/MetricNames.hh"
#include "obs/Observer.hh"

namespace sboram {

class RunFrame
{
  public:
    /** Pre-commit scrub: false vetoes the commit. */
    using ScrubFn = std::function<bool()>;

    /**
     * Create the RunObserver when @p obsCfg asks for anything.
     * @param session Null: no snapshots; a stop still throws.
     * @param interval Snapshot every N counted units; 0 = only on
     *        a stop.
     * @param interruptAfter Test seam: stop once the count reaches
     *        N; 0 disables.
     * @param unit What the count counts, for the stop message.
     */
    RunFrame(const obs::ObsConfig &obsCfg,
             ckpt::CheckpointSession *session, std::uint64_t interval,
             std::uint64_t interruptAfter, const char *unit);

    /** Null unless the config opts in. */
    obs::RunObserver *observer() { return _observer.get(); }
    /** Null unless tracing is on. */
    obs::TraceSession *trace()
    {
        return _observer ? _observer->trace() : nullptr;
    }

    /** Count commits in kMetricCheckpoints (metrics on only). */
    void
    countCheckpoints()
    {
        if (_observer && _observer->config().metrics)
            _commits = &_observer->registry().counter(
                obs::kMetricCheckpoints);
    }

    /** True when step() can never act and no observer listens. */
    bool idle() const { return !_session && !_interruptAfter && !_observer; }

    /**
     * Bind the loop's snapshot @p layout, to which the frame appends
     * the optional kSectionObs when it observes, and the loop's count
     * @p done, read after each restore.  @p done and what @p layout
     * captures must outlive the frame.
     */
    template <class Layout>
    void
    bind(Layout layout, const std::uint64_t &done, ScrubFn scrub = nullptr)
    {
        const auto all = [this, layout](auto &io) {
            layout(io);
            if (_observer)
                io.optional(ckpt::kSectionObs,
                            [this](auto &ar) { ar.nested(*_observer); });
        };
        _save = all;
        _load = all;
        _done = &done;
        _scrub = std::move(scrub);
    }

    /** The whole snapshot as a framed image (sequence 0). */
    std::vector<std::uint8_t>
    image()
    {
        ckpt::SnapshotWriter writer;
        _save(writer);
        return writer.finish(0, 0);
    }

    /** Commit a snapshot now, without the cadence's trace instant. */
    void commit();

    /** Restore the newest valid generation, if any; true if one was. */
    bool
    resume()
    {
        auto reader = _session ? _session->loadLatest() : nullptr;
        if (reader)
            restore(*reader);
        return reader != nullptr;
    }

    /** Restore @p reader through the bound layout. */
    void
    restore(const ckpt::SnapshotReader &reader)
    {
        ckpt::loadLayout(reader, _load);
        _lastAt = *_done;
    }

    /**
     * The cadence at a boundary where @p done units are counted, at
     * simulated cycle @p now: on a stop request or the interrupt
     * seam, or when the interval is due, commit a snapshot unless the
     * scrub vetoes it; on a stop, then throw InterruptedError saying
     * which of those happened.
     */
    void step(std::uint64_t done, Cycles now);

    /** End of run: the observer's final sample and artifacts. */
    void
    finish(std::uint64_t done, Cycles now)
    {
        if (_observer) {
            _observer->finalSample(done, now);
            _observer->close();
        }
    }

  private:
    std::unique_ptr<obs::RunObserver> _observer;
    ckpt::CheckpointSession *_session;
    std::uint64_t _interval;
    std::uint64_t _interruptAfter;
    const char *_unit;
    obs::Counter *_commits = nullptr;
    std::function<void(ckpt::SnapshotWriter &)> _save;
    std::function<void(ckpt::SectionLoader &)> _load;
    const std::uint64_t *_done = nullptr;
    ScrubFn _scrub;
    /** Count at the last commit or veto; the next one is due from it. */
    std::uint64_t _lastAt = 0;
};

} // namespace sboram

#endif // SBORAM_SIM_RUNFRAME_HH
