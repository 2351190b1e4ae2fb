/** Shared whole-record comparison of two runs' RunMetrics. */

#ifndef SBORAM_TESTS_RUNMETRICSUTIL_HH
#define SBORAM_TESTS_RUNMETRICSUTIL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/System.hh"

namespace sboram::test {

/** The record's .done-marker bytes (doubles bit-exact). */
inline std::vector<std::uint8_t>
metricsBytes(const RunMetrics &m)
{
    ckpt::Serializer out;
    saveRunMetrics(out, m);
    return out.take();
}

/**
 * Two runs agree when their whole records serialize to the same
 * bytes: every measured field, every OramStats and StashStats counter
 * and every per-miss forward time.
 */
inline void
expectSameMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_TRUE(metricsBytes(a) == metricsBytes(b))
        << "records differ (execTime " << a.execTime << " vs "
        << b.execTime << ", requests " << a.requests << " vs "
        << b.requests << ")";
}

} // namespace sboram::test

#endif // SBORAM_TESTS_RUNMETRICSUTIL_HH
