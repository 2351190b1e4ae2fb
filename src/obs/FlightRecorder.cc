#include "obs/FlightRecorder.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

namespace sboram {
namespace obs {

namespace {

/** FNV-1a over the dump body — the content half of the registry key. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct FlightState
{
    std::mutex mutex;
    /// (label + "-" + content hash) -> rendered dump.  Sorted map:
    /// iteration order — and hence the artifact — is independent of
    /// publish order, i.e. of SB_BENCH_THREADS scheduling.
    std::map<std::string, std::string> dumps;
    std::string panic;
};

FlightState &
state()
{
    static FlightState s;
    return s;
}

} // namespace

const char *
flightKindName(FlightKind kind)
{
    switch (kind) {
    case FlightKind::ShedAdmission: return "shed_admission";
    case FlightKind::ShedDeadline: return "shed_deadline";
    case FlightKind::PressureOn: return "pressure_on";
    case FlightKind::PressureOff: return "pressure_off";
    case FlightKind::Retry: return "retry";
    case FlightKind::WatchdogTick: return "watchdog_tick";
    case FlightKind::WatchdogTrip: return "watchdog_trip";
    case FlightKind::SloBurn: return "slo_burn";
    case FlightKind::SlotQuarantine: return "slot_quarantined";
    case FlightKind::DegradedEnter: return "degraded_enter";
    case FlightKind::DegradedExit: return "degraded_exit";
    case FlightKind::AutoRollback: return "auto_rollback";
    case FlightKind::Corruption: return "corruption";
    case FlightKind::Checkpoint: return "checkpoint";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : _ring(capacity == 0 ? 1 : capacity)
{
}

std::vector<FlightEvent>
FlightRecorder::events() const
{
    std::vector<FlightEvent> out;
    const std::size_t kept =
        _total < _ring.size() ? static_cast<std::size_t>(_total)
                              : _ring.size();
    out.reserve(kept);
    const std::uint64_t first = _total - kept;
    for (std::uint64_t i = 0; i < kept; ++i)
        out.push_back(_ring[(first + i) % _ring.size()]);
    return out;
}

std::string
FlightRecorder::renderJson(const std::string &label) const
{
    std::string out = "{\"label\": \"" + label +
                      "\", \"total\": " + std::to_string(_total) +
                      ", \"dropped\": " + std::to_string(dropped()) +
                      ", \"events\": [";
    bool first = true;
    for (const FlightEvent &e : events()) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"cycle\": " + std::to_string(e.cycle) +
               ", \"kind\": \"";
        out += flightKindName(e.kind);
        out += "\", \"a\": " + std::to_string(e.a) +
               ", \"b\": " + std::to_string(e.b) + "}";
    }
    out += "]}";
    return out;
}

template <class Self, class Ar>
void
FlightRecorder::serde(Self &self, Ar &ar)
{
    std::uint64_t capacity = self._ring.size();
    ar.u64(capacity);
    ar.u64(self._total);
    // Only the retained tail travels, oldest first; its length is
    // implied by (capacity, total).
    std::vector<FlightEvent> kept;
    if constexpr (Ar::kLoading) {
        self._ring.assign(capacity == 0 ? 1 : capacity, FlightEvent{});
        kept.resize(static_cast<std::size_t>(
            std::min<std::uint64_t>(self._total, self._ring.size())));
    } else {
        kept = self.events();
    }
    for (FlightEvent &e : kept) {
        ar.u64(e.cycle);
        ar.u64(e.a);
        ar.u64(e.b);
        ar.u8As(e.kind);
    }
    if constexpr (Ar::kLoading) {
        // The ring cursor is derived from the total: put the tail
        // back where record() had written it.
        const std::uint64_t first = self._total - kept.size();
        for (std::size_t i = 0; i < kept.size(); ++i)
            self._ring[(first + i) % self._ring.size()] = kept[i];
    }
}

template void FlightRecorder::serde(const FlightRecorder &,
                                    ckpt::Serializer &);
template void FlightRecorder::serde(FlightRecorder &, ckpt::Deserializer &);

void
publishFlightDump(const std::string &label, const std::string &json)
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    s.dumps[label + "-" + hex64(fnv1a(json))] = json;
}

std::vector<std::pair<std::string, std::string>>
flightDumps()
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    return {s.dumps.begin(), s.dumps.end()};
}

std::string
renderFlightArtifact(bool includePanic)
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    if (s.dumps.empty() && (!includePanic || s.panic.empty()))
        return "";
    std::string out = "{\"dumps\": [";
    bool first = true;
    for (const auto &kv : s.dumps) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"key\": \"" + kv.first +
               "\", \"dump\": " + kv.second + "}";
    }
    out += "]";
    if (includePanic && !s.panic.empty())
        out += ", \"panic\": " + s.panic;
    out += "}\n";
    return out;
}

void
notePanicFlight(const std::string &json)
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    s.panic = json;
}

std::string
panicFlight()
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    return s.panic;
}

void
resetFlightStateForTesting()
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    s.dumps.clear();
    s.panic.clear();
    forensics().pressure.store(0);
    forensics().degraded.store(0);
    forensics().watchdogTickCycle.store(0);
}

ServiceForensics &
forensics()
{
    static ServiceForensics f;
    return f;
}

std::string
forensicsSuffix()
{
    const ServiceForensics &f = forensics();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " pressure=%u degraded=%u last_watchdog_tick=%llu",
                  f.pressure.load(), f.degraded.load(),
                  static_cast<unsigned long long>(
                      f.watchdogTickCycle.load()));
    return buf;
}

} // namespace obs
} // namespace sboram
