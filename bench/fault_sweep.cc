/**
 * @file
 * Fault sweep — the duplication mechanism as a reliability feature.
 *
 * Sweeps deterministic memory-fault injection (bit flips, dropped
 * writes, stuck cells — see src/fault/) over fault rate × duplication
 * policy and reports, per point, how many corruptions the integrity
 * tags detected and what fraction the shadow-copy recovery path
 * healed.  Tiny ORAM keeps no duplicates, so every corrupted real
 * block is a loss; RD-Dup/HD-Dup heal a strictly positive fraction
 * from same-version shadow copies.
 *
 * The grid runs under UnrecoverablePolicy::Count so one lost block
 * does not kill the sweep.  A final demo reruns the worst point under
 * the Throw policy with bounded retry, exercising the
 * error-propagating futures end to end.
 *
 * Env knobs: SB_FAULT_SEED / SB_FAULT_KINDS / SB_FAULT_UNRECOVERABLE
 * override the grid's fault configuration; SB_FAULT_RATE replaces the
 * rate axis with the single given rate.
 */

#include "BenchUtil.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

/** Functional-scale payload-mode system (fault injection corrupts
 *  stored ciphertexts, so payloads must exist). */
SystemConfig
faultSystem()
{
    SystemConfig cfg;
    cfg.oram.dataBlocks = std::uint64_t(1) << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.payloadEnabled = true;
    cfg.oram.stashCapacity = 200;
    cfg.timingProtection = false;
    return cfg;
}

} // namespace

static int
runBench()
{
    FaultConfig faultBase;
    faultBase.seed = 99;
    faultBase.onUnrecoverable = UnrecoverablePolicy::Count;
    faultBase = FaultConfig::fromEnv(faultBase);

    std::vector<double> rates =
        quickMode() ? std::vector<double>{0.0, 5e-3}
                    : std::vector<double>{0.0, 1e-3, 5e-3, 2e-2};
    // sblint:allow-next-line(ambient-nondeterminism): presence check narrows the sweep grid to the operator's rate; seeds stay fixed
    if (std::getenv("SB_FAULT_RATE"))
        rates = {faultBase.rate};

    struct Policy
    {
        const char *name;
        Scheme scheme;
        ShadowMode mode;
    };
    const std::vector<Policy> policies = {
        {"tiny", Scheme::Tiny, ShadowMode::RdOnly},
        {"rd", Scheme::Shadow, ShadowMode::RdOnly},
        {"hd", Scheme::Shadow, ShadowMode::HdOnly},
    };
    const std::string workload = "mcf";

    struct Point
    {
        const Policy *policy;
        double rate;
        Future<RunMetrics> future;
    };
    std::vector<Point> points;
    for (const Policy &p : policies) {
        for (double rate : rates) {
            SystemConfig cfg =
                withScheme(faultSystem(), p.scheme, p.mode);
            cfg.oram.fault = faultBase;
            cfg.oram.fault.rate = rate;
            points.push_back({&p, rate, submitPoint(cfg, workload)});
        }
    }

    Table t("Fault sweep — detection and shadow-copy recovery");
    t.header({"policy", "rate", "injected", "detected", "recovered",
              "lost", "recovery%"});
    for (Point &pt : points) {
        const std::string label =
            std::string(pt.policy->name) + "@" +
            strprintf("%g", pt.rate);
        const RunMetrics &m = getChecked(pt.future, label);
        t.beginRow(pt.policy->name);
        t.cell(strprintf("%g", pt.rate));
        t.cell(m.oram.faultsInjected);
        t.cell(m.oram.faultsDetected);
        t.cell(m.oram.faultsRecovered);
        t.cell(m.oram.faultsUnrecoverable);
        t.cell(m.oram.faultsDetected
                   ? 100.0 * static_cast<double>(m.oram.faultsRecovered) /
                         static_cast<double>(m.oram.faultsDetected)
                   : 0.0,
               1);
    }
    t.print();
    std::printf("\nduplication doubles as redundancy: tiny loses "
                "every corrupted real block, rd/hd heal from "
                "same-version shadows\n");

    // Error-propagation demo: the highest-rate HD point again, but
    // with UnrecoverablePolicy::Throw and up to three immediate
    // retries.  A task that throws fails its future promptly — get()
    // rethrows on this thread instead of deadlocking the sweep — and
    // each retry rolls a fresh fault realisation (fault seed +
    // attempt).
    SystemConfig throwCfg =
        withScheme(faultSystem(), Scheme::Shadow, ShadowMode::HdOnly);
    throwCfg.oram.fault = faultBase;
    throwCfg.oram.fault.rate = rates.back();
    throwCfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Throw;
    Future<RunMetrics> f = runner().submit(
        throwCfg, workload, missesPerRun(), kBenchSeed, /*retries=*/3);
    try {
        const RunMetrics &m = f.get();
        std::printf("throw+retry: completed; recovered %llu of %llu "
                    "detected corruptions\n",
                    static_cast<unsigned long long>(m.oram.faultsRecovered),
                    static_cast<unsigned long long>(m.oram.faultsDetected));
    } catch (const CorruptionError &e) {
        std::printf("throw+retry: lost a block on every attempt "
                    "(last: access %llu, bucket %llu, level %u)\n",
                    static_cast<unsigned long long>(e.accessCount()),
                    static_cast<unsigned long long>(e.bucket()),
                    e.level());
        return 0;
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
