/**
 * @file
 * The committed-baseline checksum guard (bench/BenchUtil.hh
 * checkBaseline) that perf_smoke and service_storm exit through.
 * Each case writes its own baseline file and drives the guard through
 * the same two environment variables the smoke scripts set.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "BenchUtil.hh"

using sboram::bench::checkBaseline;

namespace {

class BaselineGuard : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("SB_BENCH_REGRESSION");
        unsetenv("SB_BENCH_BASELINE");
        _path = ::testing::TempDir() + "baseline-" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "-" + std::to_string(getpid()) + ".json";
    }

    void
    TearDown() override
    {
        std::remove(_path.c_str());
        unsetenv("SB_BENCH_REGRESSION");
        unsetenv("SB_BENCH_BASELINE");
    }

    /** Write @p doc as the baseline and point SB_BENCH_BASELINE at it. */
    void
    writeBaseline(const std::string &doc)
    {
        FILE *f = std::fopen(_path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(doc.c_str(), f);
        std::fclose(f);
        setenv("SB_BENCH_BASELINE", _path.c_str(), 1);
    }

    std::string _path;
};

// Same layout as the committed bench/BENCH_perf.json.
const char *const kPerfDoc = "{\n"
                             "  \"bench\": \"perf_smoke\",\n"
                             "  \"wall_seconds\": 4.278468,\n"
                             "  \"checksum\": \"1da786\",\n"
                             "  \"payload_wall_seconds\": 2.105365,\n"
                             "  \"payload_checksum\": \"7c9451\"\n"
                             "}\n";

} // namespace

TEST_F(BaselineGuard, MatchingChecksumsPass)
{
    writeBaseline(kPerfDoc);
    EXPECT_EQ(checkBaseline("t", "/nonexistent",
                            {{"checksum", 0x1da786},
                             {"payload_checksum", 0x7c9451}}),
              0);
}

TEST_F(BaselineGuard, MismatchInAnyFieldFails)
{
    writeBaseline(kPerfDoc);
    EXPECT_EQ(checkBaseline("t", "/nonexistent",
                            {{"checksum", 0x1da787},
                             {"payload_checksum", 0x7c9451}}),
              1);
    EXPECT_EQ(checkBaseline("t", "/nonexistent",
                            {{"checksum", 0x1da786},
                             {"payload_checksum", 0x7c9450}}),
              1);
}

TEST_F(BaselineGuard, MissingKeyFails)
{
    // "payload_checksum" must not stand in for "checksum".
    writeBaseline("{\n  \"payload_checksum\": \"7c9451\"\n}\n");
    EXPECT_EQ(checkBaseline("t", "/nonexistent",
                            {{"checksum", 0x7c9451}}),
              1);
    EXPECT_EQ(checkBaseline("t", "/nonexistent",
                            {{"payload_checksum", 0x7c9451}}),
              0);
}

TEST_F(BaselineGuard, NonHexValueFails)
{
    for (const char *doc : {"{\"checksum\": \"1dz786\"}",
                            "{\"checksum\": \"\"}",
                            "{\"checksum\": 1da786}",
                            "{\"checksum\": \"1da786"}) {
        SCOPED_TRACE(doc);
        writeBaseline(doc);
        EXPECT_EQ(checkBaseline("t", "/nonexistent",
                                {{"checksum", 0x1da786}}),
                  1);
    }
}

TEST_F(BaselineGuard, MissingFileWarnsAndPasses)
{
    setenv("SB_BENCH_BASELINE", _path.c_str(), 1);
    ::testing::internal::CaptureStderr();
    const int rc = checkBaseline("t", "/nonexistent",
                                 {{"checksum", 0x1da786}});
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 0);
    EXPECT_NE(err.find("no baseline at " + _path), std::string::npos)
        << err;
}

TEST_F(BaselineGuard, RegressionZeroDisablesTheGuard)
{
    writeBaseline(kPerfDoc);
    setenv("SB_BENCH_REGRESSION", "0", 1);
    EXPECT_EQ(checkBaseline("t", "/nonexistent",
                            {{"checksum", 0xbad}}),
              0);
    setenv("SB_BENCH_REGRESSION", "1", 1);
    EXPECT_EQ(checkBaseline("t", "/nonexistent",
                            {{"checksum", 0xbad}}),
              1);
}

TEST_F(BaselineGuard, DefaultPathWithoutOverride)
{
    writeBaseline(kPerfDoc);
    unsetenv("SB_BENCH_BASELINE");
    EXPECT_EQ(checkBaseline("t", _path, {{"checksum", 0x1da786}}), 0);
    EXPECT_EQ(checkBaseline("t", _path, {{"checksum", 0x1da787}}), 1);
}
