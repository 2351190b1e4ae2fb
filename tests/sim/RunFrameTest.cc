/**
 * @file
 * The run frame's checkpoint cadence: a scrub veto commits nothing
 * yet still moves the next due point and still stops the run, and
 * the stop message says whether a final checkpoint was written.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "sim/RunFrame.hh"
#include "sim/System.hh"
#include "svc/Service.hh"

using namespace sboram;

namespace {

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sbframe-XXXXXX";
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

/** The count saved in the newest committed snapshot, or -1. */
std::int64_t
committedCount(ckpt::CheckpointSession &session)
{
    auto reader = session.loadLatest();
    if (!reader)
        return -1;
    return static_cast<std::int64_t>(
        reader->section(ckpt::kSectionSvc).u64());
}

/** The stop message of a throwing @p body, or "" if it did not. */
template <class Body>
std::string
stopMessage(Body body)
{
    try {
        body();
    } catch (const InterruptedError &e) {
        return e.what();
    }
    return "";
}

class RunFrameCadence : public ::testing::Test
{
  protected:
    void SetUp() override { ckpt::clearStopForTesting(); }
    void TearDown() override { ckpt::clearStopForTesting(); }
};

} // namespace

TEST_F(RunFrameCadence, ScrubVetoCommitsNothingButMovesCadenceAndStops)
{
    TempDir dir;
    ckpt::CheckpointSession session(dir.path(), 0x5eed);
    RunFrame frame(obs::ObsConfig{}, &session, 10, 0, "units");
    std::uint64_t count = 0;
    bool veto = true;
    unsigned scrubs = 0;
    frame.bind(
        [&](auto &io) {
            io.section(ckpt::kSectionSvc, [&](auto &ar) { ar.u64(count); });
        },
        count,
        [&] {
            ++scrubs;
            return !veto;
        });
    // One boundary at count @p n.
    const auto at = [&](std::uint64_t n) {
        count = n;
        frame.step(n, 0);
    };

    at(9);
    EXPECT_EQ(scrubs, 0u);
    const std::uint64_t written =
        ckpt::counters().snapshotsWritten.load();
    at(10);
    EXPECT_EQ(scrubs, 1u);
    EXPECT_EQ(ckpt::counters().snapshotsWritten.load(), written);
    EXPECT_EQ(committedCount(session), -1);

    // The next due point counts from the vetoed one, not from 0.
    veto = false;
    at(19);
    EXPECT_EQ(scrubs, 1u);
    at(20);
    EXPECT_EQ(scrubs, 2u);
    EXPECT_EQ(committedCount(session), 20);

    // A stop whose final commit is vetoed still stops, and says so.
    veto = true;
    ckpt::requestStop();
    const std::string vetoed = stopMessage([&] { at(21); });
    EXPECT_NE(vetoed.find("run stopped after 21 units"),
              std::string::npos)
        << vetoed;
    EXPECT_NE(vetoed.find("skipped"), std::string::npos) << vetoed;
    EXPECT_EQ(vetoed.find("written"), std::string::npos) << vetoed;
    EXPECT_EQ(committedCount(session), 20);

    veto = false;
    const std::string written22 = stopMessage([&] { at(22); });
    EXPECT_NE(written22.find("final checkpoint written"),
              std::string::npos)
        << written22;
    EXPECT_EQ(committedCount(session), 22);
}

TEST_F(RunFrameCadence, InterruptWithoutSessionClaimsNoCheckpoint)
{
    SystemConfig cfg;
    cfg.oram.dataBlocks = 1 << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.interruptAfterAccesses = 40;
    const std::string batch = stopMessage(
        [&] { runSystem(cfg, makeTrace("mcf", 200, 1), nullptr); });
    ASSERT_FALSE(batch.empty());
    EXPECT_NE(batch.find("no checkpoint written"), std::string::npos)
        << batch;
    EXPECT_EQ(batch.find("final checkpoint written"), std::string::npos)
        << batch;

    svc::ServiceConfig svcCfg;
    svcCfg.oram.dataBlocks = 1 << 10;
    svcCfg.oram.posMapMode = PosMapMode::OnChip;
    svcCfg.arrivals.addressBlocks = 256;
    svcCfg.requests = 200;
    svcCfg.interruptAfterResolved = 40;
    const std::string service =
        stopMessage([&] { svc::runService(svcCfg, nullptr); });
    ASSERT_FALSE(service.empty());
    EXPECT_NE(service.find("no checkpoint written"), std::string::npos)
        << service;
}
