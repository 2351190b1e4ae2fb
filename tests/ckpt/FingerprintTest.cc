/**
 * @file
 * Pinned config fingerprints.
 *
 * A fingerprint keys checkpoint files, done markers, artifact labels
 * and flight labels, so its bytes must not move when the config
 * structs are refactored.  The golden snapshot digests cover only the
 * configs those tests build; these pin the defaults of both front
 * ends and of a Shadow Block point.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/System.hh"
#include "svc/Service.hh"

using namespace sboram;

TEST(ConfigFingerprint, DefaultSystemConfig)
{
    EXPECT_EQ(configFingerprint(SystemConfig{}), 0x8456af1e144ae617ULL);
}

TEST(ConfigFingerprint, ShadowSystemConfig)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Shadow;
    EXPECT_EQ(configFingerprint(cfg), 0x4fcc664d2a175060ULL);
}

TEST(ConfigFingerprint, DefaultServiceConfig)
{
    EXPECT_EQ(svc::serviceConfigFingerprint(svc::ServiceConfig{}),
              0x7f3054218cef4bd3ULL);
}
