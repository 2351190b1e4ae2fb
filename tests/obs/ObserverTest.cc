/**
 * @file
 * End-to-end observability: a traced/metered run emits valid,
 * deterministic artifacts; the same point produces byte-identical
 * artifacts on a 1-thread and a multi-thread ExperimentRunner; and a
 * run interrupted into a checkpoint and resumed emits the same metric
 * rows as an uninterrupted run (no lost or double-counted samples).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "obs/Json.hh"
#include "obs/MetricNames.hh"
#include "sim/ExperimentRunner.hh"

using namespace sboram;

namespace {

constexpr std::uint64_t kMisses = 1200;
constexpr std::uint64_t kSeed = 99;

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sbobs-XXXXXX";
        const char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        _path = d;
    }

    ~TempDir()
    {
        if (DIR *d = opendir(_path.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((_path + "/" + name).c_str());
            }
            closedir(d);
        }
        ::rmdir(_path.c_str());
    }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

SystemConfig
observedSystem(Scheme scheme, const std::string &dir,
               const std::string &label)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 14;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.onChipPosMapEntries = 1 << 10;
    cfg.oram.seed = 3;
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    cfg.obs.interval = 200;
    cfg.obs.dir = dir;
    cfg.obs.label = label;
    return cfg;
}

/** Count occurrences of @p token in @p text. */
std::size_t
countToken(const std::string &text, const std::string &token)
{
    std::size_t count = 0, pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
        ++count;
        pos += token.size();
    }
    return count;
}

/**
 * Drop the checkpoint-snapshot column from a metrics JSONL document.
 * Interrupt+resume legitimately commits more snapshots than an
 * uninterrupted run; every other column must match byte-for-byte.
 */
std::string
stripCkptColumn(std::string text)
{
    const std::string key = "\"" + std::string(obs::kMetricCheckpoints) +
                            "\": ";
    std::size_t pos;
    while ((pos = text.find(key)) != std::string::npos) {
        std::size_t end = pos + key.size();
        while (end < text.size() && text[end] != ',' &&
               text[end] != '}')
            ++end;
        if (end < text.size() && text[end] == ',')
            ++end;  // Swallow the separator too.
        text.erase(pos, end - pos);
    }
    return text;
}

} // namespace

TEST(Observer, TracedRunEmitsValidBalancedArtifacts)
{
    TempDir dir;
    const SystemConfig cfg =
        observedSystem(Scheme::Shadow, dir.path(), "traced");
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    const RunMetrics m = runSystem(cfg, trace);
    EXPECT_GT(m.requests, 0u);

    const std::string traceDoc =
        readFile(dir.path() + "/trace-traced.json");
    const obs::JsonVerdict tv = obs::validateJson(traceDoc);
    EXPECT_TRUE(tv.ok) << tv.error << " at byte " << tv.errorOffset;
    // Every begun span was ended (no orphaned B events).
    EXPECT_EQ(countToken(traceDoc, "\"ph\": \"B\""),
              countToken(traceDoc, "\"ph\": \"E\""));
    EXPECT_GT(countToken(traceDoc, "\"name\": \"access\""), 0u);
    EXPECT_GT(countToken(traceDoc, "\"name\": \"path_read\""), 0u);

    const std::string metricsDoc =
        readFile(dir.path() + "/metrics-traced.jsonl");
    const obs::JsonVerdict mv = obs::validateJsonl(metricsDoc);
    EXPECT_TRUE(mv.ok) << mv.error << " at byte " << mv.errorOffset;
    // The time-series carries the paper's policy signals.
    EXPECT_NE(metricsDoc.find(obs::kMetricPartitionLevel),
              std::string::npos);
    EXPECT_NE(metricsDoc.find(obs::kMetricDriCounter),
              std::string::npos);
    EXPECT_NE(metricsDoc.find(obs::kMetricStashReal),
              std::string::npos);
}

TEST(Observer, EveryInjectedFaultIsOneTraceInstant)
{
    // A fault is planted on a path read (fault_injected) or re-applied
    // by a stuck cell on a rewrite (fault_stuck_reapplied); both count
    // in faultsInjected, and each gets exactly one instant.
    TempDir dir;
    SystemConfig cfg =
        observedSystem(Scheme::Shadow, dir.path(), "faults");
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.05;
    cfg.oram.fault.seed = 7;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    const RunMetrics m = runSystem(cfg, makeTrace("mcf", kMisses, kSeed));

    const std::string traceDoc =
        readFile(dir.path() + "/trace-faults.json");
    const std::size_t planted =
        countToken(traceDoc, "\"name\": \"fault_injected\"");
    const std::size_t reapplied =
        countToken(traceDoc, "\"name\": \"fault_stuck_reapplied\"");
    EXPECT_GT(planted, 0u);
    EXPECT_GT(reapplied, 0u);
    EXPECT_EQ(planted + reapplied, m.oram.faultsInjected);
}

TEST(Observer, ObservedRunMatchesUnobservedMetrics)
{
    TempDir dir;
    const SystemConfig observed =
        observedSystem(Scheme::Shadow, dir.path(), "obs");
    SystemConfig plain = observed;
    plain.obs = obs::ObsConfig{};

    const auto trace = makeTrace("sjeng", kMisses, kSeed);
    const RunMetrics a = runSystem(observed, trace);
    const RunMetrics b = runSystem(plain, trace);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.oram.pathReads, b.oram.pathReads);
    EXPECT_EQ(a.oram.shadowForwards, b.oram.shadowForwards);
    EXPECT_EQ(a.energy, b.energy);
}

TEST(Observer, ArtifactsAreByteIdenticalAcrossThreadCounts)
{
    TempDir dirSeq, dirPar;
    const SystemConfig seqCfg =
        observedSystem(Scheme::Shadow, dirSeq.path(), "point");
    const SystemConfig parCfg =
        observedSystem(Scheme::Shadow, dirPar.path(), "point");

    ExperimentRunner sequential(1);
    ExperimentRunner parallel(3);
    // Uninstrumented siblings keep the pool busy around the observed
    // point, so worker scheduling genuinely varies.
    SystemConfig plain = seqCfg;
    plain.obs = obs::ObsConfig{};

    sequential.submit(seqCfg, "mcf", kMisses, kSeed).get();
    auto f1 = parallel.submit(plain, "sjeng", kMisses, kSeed);
    auto f2 = parallel.submit(parCfg, "mcf", kMisses, kSeed);
    auto f3 = parallel.submit(plain, "hmmer", kMisses, kSeed);
    f1.get();
    f2.get();
    f3.get();

    EXPECT_EQ(readFile(dirSeq.path() + "/metrics-point.jsonl"),
              readFile(dirPar.path() + "/metrics-point.jsonl"));
    EXPECT_EQ(readFile(dirSeq.path() + "/trace-point.json"),
              readFile(dirPar.path() + "/trace-point.json"));
}

TEST(Observer, MetricsSurviveCheckpointRestoreWithoutDoubleCounting)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);

    TempDir obsBase, obsResumed, ckptDir;
    ckpt::clearStopForTesting();

    // Uninterrupted reference run.
    const SystemConfig base =
        observedSystem(Scheme::Shadow, obsBase.path(), "full");
    runSystem(base, trace);

    // Interrupt at 450 (snapshot carries the sampler rows), resume to
    // completion.  The interrupted attempt never closes, so only the
    // resumed attempt writes artifacts.
    SystemConfig cfg =
        observedSystem(Scheme::Shadow, obsResumed.path(), "resumed");
    const std::uint64_t key = configFingerprint(cfg);

    SystemConfig interrupted = cfg;
    interrupted.checkpointInterval = 157;
    interrupted.interruptAfterAccesses = 450;
    {
        ckpt::CheckpointSession first(ckptDir.path(), key);
        EXPECT_THROW(runSystem(interrupted, trace, &first),
                     InterruptedError);
    }
    SystemConfig resumed = cfg;
    resumed.checkpointInterval = 157;
    {
        ckpt::CheckpointSession second(ckptDir.path(), key);
        runSystem(resumed, trace, &second);
    }

    const std::string full =
        readFile(obsBase.path() + "/metrics-full.jsonl");
    const std::string res =
        readFile(obsResumed.path() + "/metrics-resumed.jsonl");
    EXPECT_TRUE(obs::validateJsonl(res).ok);
    // Identical rows modulo the snapshot counter (the resumed run
    // commits extra checkpoints by construction).
    EXPECT_EQ(stripCkptColumn(full), stripCkptColumn(res));
}
