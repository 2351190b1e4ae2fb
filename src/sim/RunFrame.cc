#include "sim/RunFrame.hh"

#include <string>

#include "common/Errors.hh"
#include "obs/Trace.hh"

namespace sboram {

RunFrame::RunFrame(const obs::ObsConfig &obsCfg,
                   ckpt::CheckpointSession *session,
                   std::uint64_t interval, std::uint64_t interruptAfter,
                   const char *unit)
    : _session(session), _interval(interval),
      _interruptAfter(interruptAfter), _unit(unit)
{
    if (obsCfg.any())
        _observer = std::make_unique<obs::RunObserver>(obsCfg);
}

void
RunFrame::saveAll(ckpt::SnapshotWriter &writer)
{
    _save(writer);
    if (_observer)
        _observer->saveState(writer.section(ckpt::kSectionObs));
}

void
RunFrame::commit()
{
    ckpt::SnapshotWriter writer;
    saveAll(writer);
    _session->commitSnapshot(writer);
    if (_commits != nullptr)
        _commits->add();
}

void
RunFrame::restore(const ckpt::SnapshotReader &reader)
{
    _lastAt = _load(reader);
    if (_observer && reader.hasSection(ckpt::kSectionObs)) {
        auto dObs = reader.section(ckpt::kSectionObs);
        _observer->loadState(dObs);
    }
}

void
RunFrame::step(std::uint64_t done, Cycles now)
{
    const bool stopping =
        ckpt::stopRequested() ||
        (_interruptAfter != 0 && done >= _interruptAfter);
    const bool due = _session != nullptr && _interval != 0 &&
                     done - _lastAt >= _interval;
    if (!stopping && !due)
        return;
    const char *outcome = "no checkpoint written: no session attached";
    if (_session != nullptr) {
        _lastAt = done;
        // Scrub-before-commit: a fault can sit latent between
        // injection and the read that detects it, and a snapshot
        // taken inside that window would hand tier-3 rollback a
        // poisoned restore point.  The scrub verifies (and
        // shadow-heals) the stored state first; if an unhealable
        // corruption is present, skip this commit and keep the last
        // clean generation.
        const bool veto = _scrub && !_scrub();
        if (!veto)
            commit();
        if (obs::TraceSession *t = trace())
            t->instant(obs::kTrackCheckpoint,
                       veto ? "checkpoint_skipped" : "checkpoint", now);
        outcome = veto ? "final checkpoint skipped by the pre-commit "
                         "scrub; a resume starts from the last clean one"
                       : "final checkpoint written";
    }
    if (stopping)
        throw InterruptedError("run stopped after " +
                                   std::to_string(done) + " " + _unit +
                                   " (" + outcome + ")",
                               done);
}

} // namespace sboram
