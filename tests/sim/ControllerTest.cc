/**
 * @file
 * The controller assembly's own contracts: which snapshot sections it
 * owns, that restore() fetches every one of them before it loads any
 * (a snapshot missing one leaves the controller untouched), and how
 * the flight label is resolved and published.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/Errors.hh"
#include "sim/Controller.hh"

using namespace sboram;

namespace {

SystemConfig
controllerConfig(Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 10;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.oram.seed = 7;
    cfg.shadow.mode = ShadowMode::HdOnly;
    return cfg;
}

/** @p n back-to-back accesses over a small hot set, phase @p phase. */
void
drive(Controller &ctrl, unsigned n, unsigned phase)
{
    Cycles t = 0;
    for (unsigned i = 0; i < n; ++i)
        t = ctrl.oram()
                .access((i * 7 + phase) % 64,
                        i % 3 == 0 ? Op::Write : Op::Read, t)
                .completeAt;
}

std::vector<std::uint8_t>
image(const Controller &ctrl)
{
    ckpt::SnapshotWriter writer;
    ctrl.save(writer);
    return writer.finish(0, 0);
}

} // namespace

TEST(Controller, SavesPolicySectionOnlyUnderShadow)
{
    Controller shadow(controllerConfig(Scheme::Shadow),
                      Controller::FrontEnd::Batch, 1);
    Controller tiny(controllerConfig(Scheme::Tiny),
                    Controller::FrontEnd::Batch, 1);
    ASSERT_NE(shadow.shadowPolicy(), nullptr);
    EXPECT_EQ(tiny.shadowPolicy(), nullptr);

    const ckpt::SnapshotReader s(image(shadow));
    const ckpt::SnapshotReader t(image(tiny));
    for (std::uint32_t id : {ckpt::kSectionOram, ckpt::kSectionDram}) {
        EXPECT_TRUE(s.hasSection(id));
        EXPECT_TRUE(t.hasSection(id));
    }
    EXPECT_TRUE(s.hasSection(ckpt::kSectionPolicy));
    EXPECT_FALSE(t.hasSection(ckpt::kSectionPolicy));
}

TEST(Controller, ShadowRestoreRoundTrips)
{
    Controller ctrl(controllerConfig(Scheme::Shadow),
                    Controller::FrontEnd::Batch, 1);
    drive(ctrl, 300, 0);
    const std::vector<std::uint8_t> saved = image(ctrl);
    drive(ctrl, 100, 3);
    ASSERT_NE(image(ctrl), saved);

    ctrl.restore(ckpt::SnapshotReader(saved));
    EXPECT_EQ(image(ctrl), saved);
}

TEST(Controller, ShadowRestoreLackingPolicyMutatesNothing)
{
    Controller ctrl(controllerConfig(Scheme::Shadow),
                    Controller::FrontEnd::Batch, 1);
    drive(ctrl, 300, 0);
    const std::vector<std::uint8_t> before = image(ctrl);

    // A Tiny controller of the same geometry, driven differently:
    // its ORAM and DRAM sections would load, but it has no policy
    // section, so the restore must fail before touching either.
    Controller tiny(controllerConfig(Scheme::Tiny),
                    Controller::FrontEnd::Batch, 1);
    drive(tiny, 200, 5);
    const ckpt::SnapshotReader reader(image(tiny));
    ASSERT_FALSE(reader.hasSection(ckpt::kSectionPolicy));

    EXPECT_THROW(ctrl.restore(reader), CkptMismatchError);
    EXPECT_EQ(image(ctrl), before);
}

TEST(Controller, TinyRestoreNeverAsksForThePolicySection)
{
    Controller source(controllerConfig(Scheme::Tiny),
                      Controller::FrontEnd::Batch, 1);
    drive(source, 200, 5);
    const std::vector<std::uint8_t> saved = image(source);

    Controller target(controllerConfig(Scheme::Tiny),
                      Controller::FrontEnd::Batch, 1);
    drive(target, 50, 1);
    EXPECT_NO_THROW(target.restore(ckpt::SnapshotReader(saved)));
    EXPECT_EQ(image(target), saved);
}

TEST(Controller, FlightLabelComesFromFrontEndAndFingerprint)
{
    obs::resetFlightStateForTesting();
    SystemConfig cfg = controllerConfig(Scheme::Tiny);
    Controller batch(cfg, Controller::FrontEnd::Batch, 0xabc);
    Controller service(cfg, Controller::FrontEnd::Service, 0xabc);
    cfg.obs.label = "custom";
    Controller labelled(cfg, Controller::FrontEnd::Service, 0xabc);

    const auto labelOf = [](const std::string &dump) {
        const std::string head = "{\"label\": \"";
        EXPECT_EQ(dump.rfind(head, 0), 0u) << dump;
        return dump.substr(head.size(),
                           dump.find('"', head.size()) - head.size());
    };
    EXPECT_EQ(labelOf(batch.publishFlight()), "sys-0000000000000abc");
    EXPECT_EQ(labelOf(service.publishFlight()), "svc-0000000000000abc");
    EXPECT_EQ(labelOf(labelled.publishFlight()), "custom");
    // Empty rings stay out of the registry.
    EXPECT_TRUE(obs::flightDumps().empty());

    service.flight().record(5, obs::FlightKind::Retry, 1, 2);
    const std::string dump = service.publishFlight();
    const auto dumps = obs::flightDumps();
    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_EQ(dumps[0].first.rfind("svc-0000000000000abc-", 0), 0u);
    EXPECT_EQ(dumps[0].second, dump);
}
