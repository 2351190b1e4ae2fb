/**
 * @file
 * The controller assembly's own contracts: which snapshot sections it
 * owns, that restore() fetches every one of them before it loads any
 * (a snapshot missing one leaves the controller and its port
 * untouched), that the issue port without timing protection or
 * virtual dummies is a bare ORAM access, and how the flight label is
 * resolved and published.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Errors.hh"
#include "oram/TraceSink.hh"
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

/** @p n accesses through the port, @p gap idle cycles apart. */
void
driveIssue(Controller &ctrl, unsigned n, unsigned phase, Cycles gap)
{
    Cycles t = 0;
    for (unsigned i = 0; i < n; ++i)
        t = ctrl.issue((i * 5 + phase) % 96,
                       i % 4 == 0 ? Op::Write : Op::Read, t)
                .completeAt +
            gap * (i % 3);
}

/** FNV-1a over the externally visible path trace. */
struct HashSink : TraceSink
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::uint64_t events = 0;

    void
    onPathAccess(LeafLabel leaf, bool isWrite) override
    {
        const std::uint64_t word = leaf * 2 + (isWrite ? 1 : 0);
        hash = ckpt::fnv1a(
            reinterpret_cast<const std::uint8_t *>(&word), sizeof(word),
            hash);
        ++events;
    }
};

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
    for (std::uint32_t id :
         {ckpt::kSectionPort, ckpt::kSectionOram, ckpt::kSectionDram}) {
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
    // Timing protection with idle gaps, so the port's slot grid, busy
    // time and the dummy count are all live state.
    SystemConfig cfg = controllerConfig(Scheme::Shadow);
    cfg.timingProtection = true;
    Controller ctrl(cfg, Controller::FrontEnd::Batch, 1);
    driveIssue(ctrl, 300, 0, 4000);
    ASSERT_GT(ctrl.oram().stats().dummyAccesses, 0u);
    const std::vector<std::uint8_t> before = image(ctrl);

    // A Tiny controller of the same geometry, driven differently:
    // its port, ORAM and DRAM sections would load, but it has no
    // policy section, so the restore must fail before touching any.
    cfg.scheme = Scheme::Tiny;
    Controller tiny(cfg, Controller::FrontEnd::Batch, 1);
    driveIssue(tiny, 200, 5, 9000);
    const ckpt::SnapshotReader reader(image(tiny));
    ASSERT_FALSE(reader.hasSection(ckpt::kSectionPolicy));
    const ckpt::SnapshotReader mine(before);
    const auto portBytes = [](const ckpt::SnapshotReader &r) {
        ckpt::Deserializer d = r.section(ckpt::kSectionPort);
        std::vector<std::uint8_t> b(d.remaining());
        d.bytes(b.data(), b.size());
        return b;
    };
    ASSERT_NE(portBytes(reader), portBytes(mine));

    EXPECT_THROW(ctrl.restore(reader), CkptMismatchError);
    EXPECT_EQ(image(ctrl), before);
}

TEST(Controller, PortDummyCountMustMatchTheOram)
{
    SystemConfig cfg = controllerConfig(Scheme::Tiny);
    cfg.timingProtection = true;
    Controller source(cfg, Controller::FrontEnd::Batch, 1);
    driveIssue(source, 100, 0, 4000);
    ASSERT_GT(source.oram().stats().dummyAccesses, 0u);
    const ckpt::SnapshotReader saved(image(source));

    // Rebuild the snapshot with the port's fifth word, the dummy
    // count, one higher than the ORAM section's.
    ckpt::SnapshotWriter forged;
    for (std::uint32_t id :
         {ckpt::kSectionPort, ckpt::kSectionOram, ckpt::kSectionDram}) {
        ckpt::Deserializer d = saved.section(id);
        std::vector<std::uint8_t> b(d.remaining());
        d.bytes(b.data(), b.size());
        if (id == ckpt::kSectionPort) {
            ASSERT_EQ(b.size(), 5u * 8u);
            ++b[4 * 8];
        }
        forged.section(id).bytes(b.data(), b.size());
    }
    Controller target(cfg, Controller::FrontEnd::Batch, 1);
    EXPECT_THROW(target.restore(ckpt::SnapshotReader(forged.finish(0, 0))),
                 CkptMismatchError);
    EXPECT_NO_THROW(target.restore(saved));
    EXPECT_EQ(image(target), image(source));
}

TEST(Controller, IssueWithoutTimingProtectionEqualsDirectAccess)
{
    SystemConfig cfg = controllerConfig(Scheme::Shadow);
    cfg.virtualDummies = false;
    Controller port(cfg, Controller::FrontEnd::Batch, 1);
    Controller direct(cfg, Controller::FrontEnd::Batch, 1);
    HashSink portTrace;
    HashSink directTrace;
    port.oram().setTraceSink(&portTrace);
    direct.oram().setTraceSink(&directTrace);

    Cycles t = 0;
    unsigned stashHits = 0;
    for (unsigned i = 0; i < 600; ++i) {
        const Addr addr = (i * 7 + i / 50) % 80;
        const Op op = i % 3 == 0 ? Op::Write : Op::Read;
        const AccessResult a = port.issue(addr, op, t);
        const AccessResult b = direct.oram().access(addr, op, t);
        ASSERT_EQ(a.start, b.start) << i;
        ASSERT_EQ(a.forwardAt, b.forwardAt) << i;
        ASSERT_EQ(a.completeAt, b.completeAt) << i;
        ASSERT_EQ(a.stashHit, b.stashHit) << i;
        ASSERT_EQ(a.onChipHit, b.onChipHit) << i;
        ASSERT_EQ(a.usedShadow, b.usedShadow) << i;
        ASSERT_EQ(a.forwardLevel, b.forwardLevel) << i;
        ASSERT_EQ(a.pathAccesses, b.pathAccesses) << i;
        stashHits += a.stashHit ? 1 : 0;
        t = a.completeAt + (i % 5) * 3000;
    }
    EXPECT_GT(stashHits, 0u);
    EXPECT_GT(portTrace.events, 0u);
    EXPECT_EQ(portTrace.events, directTrace.events);
    EXPECT_EQ(portTrace.hash, directTrace.hash);
    EXPECT_EQ(port.oram().stats().dummyAccesses, 0u);
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
