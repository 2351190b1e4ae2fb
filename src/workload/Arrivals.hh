/**
 * @file
 * Open-loop arrival generation for the online service layer.
 *
 * The batch workloads in Workload.hh model one CPU's LLC-miss stream;
 * the service layer instead serves an open-loop population of logical
 * clients whose requests arrive on a virtual-cycle clock regardless of
 * how fast the ORAM drains them.  Three arrival processes cover the
 * classic service shapes: Poisson (memoryless steady state), bursty
 * (on/off square wave — the overload drill), and diurnal (a cosine
 * day/night swing).  Rates are modulated deterministically from the
 * virtual clock, so a given (config, seed) always produces the same
 * arrival sequence — the byte-identity contract for BENCH_latency.json
 * starts here.
 *
 * The generator is checkpointable mid-stream: its cursor (RNG state,
 * virtual clock, emitted count) round-trips through the ckpt Serde so
 * a killed service run resumes producing bit-identical arrivals.
 */

#ifndef SBORAM_WORKLOAD_ARRIVALS_HH
#define SBORAM_WORKLOAD_ARRIVALS_HH

#include <cstdint>

#include "ckpt/Serde.hh"
#include "common/Rng.hh"
#include "common/Types.hh"
#include "workload/Workload.hh"

namespace sboram {

/** Shape of the arrival process. */
enum class ArrivalKind : std::uint8_t
{
    Poisson,  ///< Memoryless, constant mean rate.
    Bursty,   ///< On/off square wave: burstFactor× rate while on.
    Diurnal,  ///< Cosine swing between peak and trough rate.
};

/** Parameters of one arrival stream. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;

    /** Mean cycles between arrivals at the baseline rate. */
    double meanGapCycles = 400.0;

    /** Logical client-id space (millions of clients; ids only tag
     *  requests — clients hold no per-client state). */
    std::uint64_t clients = 2'000'000;

    /** Address space the stream covers, in blocks. */
    std::uint64_t addressBlocks = 1 << 12;

    /** Zipf exponent of address popularity (0 = uniform); the hot
     *  head is what same-address dedup and shadow forwarding feed
     *  on. */
    double zipfAlpha = 1.0;

    /** Fraction of requests that are writes. */
    double writeFraction = 0.2;

    /** Bursty: rate multiplier while the burst is on. */
    double burstFactor = 4.0;
    /** Bursty: cycles per on phase. */
    Cycles burstOnCycles = 200'000;
    /** Bursty: cycles per off phase. */
    Cycles burstOffCycles = 600'000;

    /** Diurnal: period of one simulated day, in cycles. */
    Cycles diurnalPeriodCycles = 2'000'000;
    /** Diurnal: trough rate as a fraction of the peak rate. */
    double diurnalTroughFactor = 0.25;

    std::uint64_t seed = 1;
};

/** One client request entering the admission queue. */
struct ArrivalRecord
{
    Cycles arrival = 0;  ///< Virtual-cycle arrival time.
    std::uint64_t client = 0;
    Addr addr = 0;
    bool isWrite = false;
};

/**
 * Deterministic arrival stream.  next() draws, in a fixed order, the
 * inter-arrival gap, client id, Zipf-ranked address and write flag —
 * the order is part of the determinism contract (reordering draws
 * changes every downstream artifact).
 */
class ArrivalGenerator
{
  public:
    explicit ArrivalGenerator(const ArrivalConfig &cfg);

    /** Produce the next arrival; clock advances monotonically. */
    ArrivalRecord next();

    /** Arrivals produced so far. */
    std::uint64_t emitted() const { return _emitted; }

    /** Current virtual clock (time of the last arrival). */
    Cycles virtualClock() const { return _clock; }

    const ArrivalConfig &config() const { return _cfg; }

    /** Serialize the cursor (not the config — that is fingerprinted
     *  by the caller and must match on resume). */
    void saveState(ckpt::Serializer &out) const { serde(*this, out); }
    void loadState(ckpt::Deserializer &in) { serde(*this, in); }

  private:
    template <class Self, class Ar>
    static void serde(Self &self, Ar &ar);

    /** Instantaneous rate multiplier at virtual time @p at. */
    double rateScale(Cycles at) const;

    ArrivalConfig _cfg;
    Rng _rng;
    ZipfSampler _zipf;
    Cycles _clock = 0;
    std::uint64_t _emitted = 0;
};

/** Serialize every semantic ArrivalConfig field (fingerprinting). */
void fingerprintArrivals(ckpt::Serializer &out,
                         const ArrivalConfig &cfg);

} // namespace sboram

#endif // SBORAM_WORKLOAD_ARRIVALS_HH
