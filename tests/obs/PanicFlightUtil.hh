/** Shared assertion for the fatal-path flight dump of a run. */

#ifndef SBORAM_TESTS_PANICFLIGHTUTIL_HH
#define SBORAM_TESTS_PANICFLIGHTUTIL_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/FlightRecorder.hh"

namespace sboram::test {

/** Default flight label of a run: "<prefix>-<fingerprint in hex>". */
inline std::string
fingerprintLabel(const std::string &prefix, std::uint64_t fingerprint)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return prefix + "-" + hex;
}

/**
 * A run that rethrew a fatal error must have left its flight ring in
 * the panic slot, labelled @p label and holding a @p kind event, and
 * published the same dump under a "<label>-<content hash>" key.
 * Clear the registry with obs::resetFlightStateForTesting() before
 * the run.
 */
inline void
expectPanicFlight(const std::string &label, const std::string &kind)
{
    const std::string panic = obs::panicFlight();
    ASSERT_FALSE(panic.empty()) << "no panic flight dump";
    EXPECT_EQ(panic.rfind("{\"label\": \"" + label + "\"", 0), 0u)
        << panic;
    EXPECT_NE(panic.find("\"kind\": \"" + kind + "\""), std::string::npos)
        << panic;

    bool published = false;
    for (const auto &[key, dump] : obs::flightDumps())
        published |= key.rfind(label + "-", 0) == 0 &&
                     key.size() == label.size() + 17 && dump == panic;
    EXPECT_TRUE(published) << "no flight dump under " << label << "-*";
}

} // namespace sboram::test

#endif // SBORAM_TESTS_PANICFLIGHTUTIL_HH
