#include "Observer.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "MetricNames.hh"
#include "common/Logging.hh"

namespace sboram {
namespace obs {

namespace {

/** One completed run on one worker (wall clock, runner lanes). */
struct Lane
{
    unsigned worker = 0;
    std::string label;
    std::uint64_t startUs = 0;
    std::uint64_t durUs = 0;
};

std::mutex g_obsMutex;
std::vector<std::string> g_artifacts;
std::vector<Lane> g_lanes;
std::string g_dirOverride;

thread_local unsigned t_workerIndex = 0;

bool
envFlag(const char *name)
{
    // sblint:allow-next-line(ambient-nondeterminism): observability opt-in knob; never read on the simulated path and never affects results
    const char *v = std::getenv(name);
    return v != nullptr && v[0] == '1';
}

} // namespace

void
setWorkerIndex(unsigned index)
{
    t_workerIndex = index;
}

unsigned
workerIndex()
{
    return t_workerIndex;
}

std::uint64_t
wallMicros()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - epoch)
            .count());
}

void
applyEnv(ObsConfig &cfg)
{
    if (!cfg.any()) {
        cfg.trace = envFlag("SB_OBS_TRACE");
        cfg.metrics = envFlag("SB_OBS_METRICS");
        cfg.heartbeat = envFlag("SB_OBS_HEARTBEAT");
        // sblint:allow-next-line(ambient-nondeterminism): sampling cadence knob; cadence changes what is recorded, never what is simulated
        if (const char *iv = std::getenv("SB_OBS_INTERVAL")) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(iv, &end, 10);
            if (end == iv || *end != '\0' || v == 0) {
                SB_WARN("ignoring invalid SB_OBS_INTERVAL='%s' "
                        "(want a positive access count)",
                        iv);
            } else {
                cfg.interval = v;
            }
        }
    }
    if (cfg.dir.empty()) {
        {
            std::lock_guard<std::mutex> lock(g_obsMutex);
            cfg.dir = g_dirOverride;
        }
        if (cfg.dir.empty()) {
            // sblint:allow-next-line(ambient-nondeterminism): artifact destination directory; file placement does not feed back into the simulation
            if (const char *dir = std::getenv("SB_OBS_DIR"))
                cfg.dir = dir;
        }
    }
}

void
setDirOverride(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(g_obsMutex);
    g_dirOverride = dir;
}

std::string
dirOverride()
{
    std::lock_guard<std::mutex> lock(g_obsMutex);
    return g_dirOverride;
}

std::string
makeLabel(const std::string &workload, std::uint64_t fingerprint)
{
    std::string label;
    label.reserve(workload.size() + 17);
    for (char c : workload) {
        const bool ok =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_' || c == '-';
        label += ok ? c : '_';
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "-%016llx",
                  static_cast<unsigned long long>(fingerprint));
    label += buf;
    return label;
}

void
recordArtifact(const std::string &path)
{
    std::lock_guard<std::mutex> lock(g_obsMutex);
    g_artifacts.push_back(path);
}

std::vector<std::string>
artifactLog()
{
    std::lock_guard<std::mutex> lock(g_obsMutex);
    return g_artifacts;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    out.flush();
    return static_cast<bool>(out);
}

bool
writeRunnerTrace(const std::string &path)
{
    std::vector<Lane> lanes;
    {
        std::lock_guard<std::mutex> lock(g_obsMutex);
        lanes = g_lanes;
    }
    if (lanes.empty())
        return false;
    TraceSession session;
    for (const Lane &lane : lanes)
        session.complete(lane.worker, lane.label.c_str(),
                         lane.startUs, lane.durUs);
    if (!writeTextFile(path, session.render()))
        return false;
    recordArtifact(path);
    return true;
}

// ---------------------------------------------------------------------
// RunObserver
// ---------------------------------------------------------------------

RunObserver::RunObserver(const ObsConfig &cfg)
    : _cfg(cfg), _worker(workerIndex()), _wallStartUs(wallMicros())
{
    if (_cfg.trace)
        _trace = std::make_unique<TraceSession>();
    if (_cfg.metrics)
        _reqLatency = &_registry.histogramLog2(kMetricReqLatency,
                                               kDefaultLog2Bins);
}

RunObserver::~RunObserver() = default;

void
RunObserver::sealRegistry()
{
    if (_cfg.metrics && !_sampler)
        _sampler = std::make_unique<IntervalSampler>(_registry,
                                                     _cfg.interval);
}

void
RunObserver::onAccessBoundary(std::uint64_t accessesDone,
                              std::uint64_t cycles,
                              std::uint64_t issue,
                              std::uint64_t forward)
{
    if (_reqLatency != nullptr && forward >= issue)
        _reqLatency->sample(static_cast<double>(forward - issue));
    if (_sampler)
        _sampler->onAccess(accessesDone, cycles);
    if (_cfg.heartbeat)
        maybeHeartbeat(accessesDone);
}

void
RunObserver::finalSample(std::uint64_t accessesDone,
                         std::uint64_t cycles)
{
    if (!_sampler)
        return;
    if (!_sampler->rows().empty() &&
        _sampler->rows().back().access == accessesDone)
        return;
    _sampler->takeSample(accessesDone, cycles);
}

void
RunObserver::maybeHeartbeat(std::uint64_t accessesDone)
{
    if (accessesDone - _lastBeatAccess < _cfg.interval)
        return;
    const std::uint64_t now = wallMicros();
    // Rate-limit to one line per second per run so a tiny interval
    // cannot flood stderr.
    if (_lastBeatUs != 0 && now - _lastBeatUs < 1000000)
        return;
    const double elapsed =
        static_cast<double>(now - _wallStartUs) / 1e6;
    const double rate = elapsed > 0.0
        ? static_cast<double>(accessesDone) / elapsed
        : 0.0;
    const double eta = (rate > 0.0 && _total > accessesDone)
        ? static_cast<double>(_total - accessesDone) / rate
        : 0.0;
    SB_INFORM("[w%u] %s: %llu/%llu accesses, %.0f acc/s, ETA %.0f s",
              _worker,
              _cfg.label.empty() ? "run" : _cfg.label.c_str(),
              static_cast<unsigned long long>(accessesDone),
              static_cast<unsigned long long>(_total), rate, eta);
    _lastBeatUs = now;
    _lastBeatAccess = accessesDone;
}

template <class Self, class Ar>
void
RunObserver::serde(Self &self, Ar &ar)
{
    ar.nested(self._registry);
    bool hasSampler = self._sampler != nullptr;
    ar.u8As(hasSampler);
    if (!hasSampler)
        return;
    if constexpr (Ar::kLoading) {
        if (!self._sampler) {
            // The snapshot was written by a metrics-enabled run but
            // this one has metrics off (obs config is not part of the
            // point fingerprint), so there is no sampler to mirror
            // the save into: read the body into scratch so later
            // reads stay aligned.
            MetricRegistry scratchRegistry;
            IntervalSampler scratch(scratchRegistry, 1);
            ar.nested(scratch);
            return;
        }
    }
    ar.nested(*self._sampler);
}

template void RunObserver::serde(const RunObserver &, ckpt::Serializer &);
template void RunObserver::serde(RunObserver &, ckpt::Deserializer &);

void
RunObserver::close()
{
    if (_closed)
        return;
    _closed = true;

    const std::string dir = _cfg.dir.empty() ? "." : _cfg.dir;
    const std::string label =
        _cfg.label.empty() ? "run" : _cfg.label;

    if (_sampler) {
        const std::string path =
            dir + "/metrics-" + label + ".jsonl";
        if (writeTextFile(path, _sampler->renderJsonl()))
            recordArtifact(path);
        else
            SB_WARN("obs: cannot write %s", path.c_str());
    }
    if (_trace) {
        const std::string path = dir + "/trace-" + label + ".json";
        if (writeTextFile(path, _trace->render()))
            recordArtifact(path);
        else
            SB_WARN("obs: cannot write %s", path.c_str());
    }

    Lane lane;
    lane.worker = _worker;
    lane.label = label;
    lane.startUs = _wallStartUs;
    lane.durUs = wallMicros() - _wallStartUs;
    std::lock_guard<std::mutex> lock(g_obsMutex);
    g_lanes.push_back(std::move(lane));
}

} // namespace obs
} // namespace sboram
