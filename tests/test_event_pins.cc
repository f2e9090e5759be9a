/**
 * @file
 * Exact engine-event pins: one small fig-10 point per configuration
 * kind (16 cores) plus 2-chip WiSync points over an ideal and a lossy
 * bridge. Each pin is the number of events the engine dispatched and
 * the digest of the canonical result JSON.
 *
 * The event count is deterministic, so it is gated exactly: a change
 * that adds host events fails here with no timing noise, and a change
 * that removes them must lower the pin in the same commit. The digest
 * proves the simulated output did not move while the count did.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/machine.hh"
#include "core/machine_config.hh"
#include "service/config_codec.hh"
#include "sim/fnv.hh"
#include "workloads/apps.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;

struct EventPin
{
    const char *label;
    ConfigKind kind;
    std::uint32_t chips;
    bool lossy;
    std::uint64_t events;
    std::uint64_t digest;
};

/** The app: barriers, locks and shared data in one short run. */
constexpr const char *kApp = "fluidanimate";

constexpr EventPin kPins[] = {
    {"baseline", ConfigKind::Baseline, 1, false, 64578,
     0x08d47e8f3864977cull},
    {"baseline_plus", ConfigKind::BaselinePlus, 1, false, 85475,
     0xb393e881049c0460ull},
    {"wisync_not", ConfigKind::WiSyncNoT, 1, false, 51991,
     0x1af39db5727446b3ull},
    {"wisync", ConfigKind::WiSync, 1, false, 129732,
     0x4efd49e7b09d68a9ull},
    {"wisync_2chip", ConfigKind::WiSync, 2, false, 193576,
     0xa15ea2a27a86cfa5ull},
    {"wisync_2chip_lossy", ConfigKind::WiSync, 2, true, 194025,
     0x153a859f8f4b0fe6ull},
};

TEST(EventPins, EventsAndDigestPerPoint)
{
    const auto &app = wisync::workloads::appByName(kApp);
    for (const EventPin &pin : kPins) {
        SCOPED_TRACE(pin.label);
        auto cfg = MachineConfig::make(pin.kind, 16);
        cfg.setFastpath(true);
        cfg.seed = 1;
        cfg.numChips = pin.chips;
        if (pin.lossy) {
            cfg.wireless.lossPct = 5.0;
            cfg.bridge.lossPct = 10.0;
        }
        Machine m(cfg);
        const auto r = wisync::workloads::runAppOn(app, m);
        ASSERT_TRUE(r.completed);
        const std::string json =
            wisync::service::ConfigCodec::serializeResult(r);
        EXPECT_EQ(m.engine().eventsExecuted(), pin.events);
        EXPECT_EQ(wisync::sim::fnv1a(json.data(), json.size()), pin.digest);
    }
}

} // namespace
