/**
 * @file
 * Exact engine-event pins: one small fig-10 point per configuration
 * kind (16 cores), 2-chip WiSync points over an ideal and a lossy
 * bridge, and contention/loss points that drive the broadcast send
 * path through every outcome: 64-core CAS-LIFO under each MacKind
 * (collisions, AFB failures, token waits), lossy WiSyncNoT tightloops
 * with i.i.d. and bursty loss (drops, ack windows, retransmissions)
 * and a maxRetries = 0 point (give-ups and store re-issues). Each pin
 * is the number of events the engine dispatched and the digest of the
 * canonical result JSON.
 *
 * The event count is deterministic, so it is gated exactly: a change
 * that adds host events fails here with no timing noise, and a change
 * that removes them must lower the pin in the same commit. The digest
 * proves the simulated output did not move while the count did.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bm/bm_system.hh"
#include "core/machine.hh"
#include "core/machine_config.hh"
#include "service/config_codec.hh"
#include "sim/fnv.hh"
#include "wireless/data_channel.hh"
#include "workloads/apps.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::wireless::MacKind;

/** What a pin runs on its machine. */
enum class Work
{
    /** kApp: barriers, locks and shared data in one short run. */
    App,
    /** CAS-LIFO for kCasCycles: contended RMW broadcasts. */
    CasLifo,
    /** kTightIterations barrier iterations. */
    TightLoop,
};

constexpr const char *kApp = "fluidanimate";
constexpr std::uint64_t kCasCycles = 30'000;
constexpr std::uint32_t kTightIterations = 20;

struct EventPin
{
    const char *label;
    Work work;
    ConfigKind kind;
    std::uint32_t cores;
    /** Config changes on top of MachineConfig::make (may be null). */
    void (*tweak)(MachineConfig &);
    std::uint64_t events;
    std::uint64_t digest;
};

void
twoChips(MachineConfig &cfg)
{
    cfg.numChips = 2;
}

void
twoChipsLossy(MachineConfig &cfg)
{
    cfg.numChips = 2;
    cfg.wireless.lossPct = 5.0;
    cfg.bridge.lossPct = 10.0;
}

template <MacKind kMac>
void
mac(MachineConfig &cfg)
{
    cfg.wireless.macKind = kMac;
}

void
loss25(MachineConfig &cfg)
{
    cfg.wireless.lossPct = 25.0;
}

void
burstLoss25(MachineConfig &cfg)
{
    cfg.wireless.burst = wisync::wireless::BurstParams::fromMean(25.0, 4.0);
}

void
giveUpEveryDrop(MachineConfig &cfg)
{
    cfg.wireless.lossPct = 60.0;
    cfg.wireless.maxRetries = 0;
}

constexpr EventPin kPins[] = {
    {"baseline", Work::App, ConfigKind::Baseline, 16, nullptr, 64578,
     0x08d47e8f3864977cull},
    {"baseline_plus", Work::App, ConfigKind::BaselinePlus, 16, nullptr,
     85475, 0xb393e881049c0460ull},
    {"wisync_not", Work::App, ConfigKind::WiSyncNoT, 16, nullptr, 51991,
     0x1af39db5727446b3ull},
    {"wisync", Work::App, ConfigKind::WiSync, 16, nullptr, 129732,
     0x4efd49e7b09d68a9ull},
    {"wisync_2chip", Work::App, ConfigKind::WiSync, 16, twoChips, 193576,
     0xa15ea2a27a86cfa5ull},
    {"wisync_2chip_lossy", Work::App, ConfigKind::WiSync, 16,
     twoChipsLossy, 194025, 0x153a859f8f4b0fe6ull},
    {"cas_lifo_brs", Work::CasLifo, ConfigKind::WiSync, 64,
     mac<MacKind::Brs>, 246165, 0xcc93f568dc466e7aull},
    {"cas_lifo_token", Work::CasLifo, ConfigKind::WiSync, 64,
     mac<MacKind::Token>, 233678, 0x57635cc6cac76843ull},
    {"cas_lifo_fuzzy", Work::CasLifo, ConfigKind::WiSync, 64,
     mac<MacKind::FuzzyToken>, 244876, 0x502416f7faabed18ull},
    {"cas_lifo_adaptive", Work::CasLifo, ConfigKind::WiSync, 64,
     mac<MacKind::Adaptive>, 236781, 0x60d6d5d53e276141ull},
    {"tight_loss25", Work::TightLoop, ConfigKind::WiSyncNoT, 16, loss25,
     23542, 0x2be5a0ce3732e87eull},
    {"tight_burst25", Work::TightLoop, ConfigKind::WiSyncNoT, 16,
     burstLoss25, 23695, 0x59decb429548b5a0ull},
    {"tight_giveups", Work::TightLoop, ConfigKind::WiSyncNoT, 16,
     giveUpEveryDrop, 26286, 0x5e3f511841e73306ull},
};

wisync::workloads::KernelResult
runPin(const EventPin &pin, Machine &m)
{
    switch (pin.work) {
      case Work::App:
        return wisync::workloads::runAppOn(
            wisync::workloads::appByName(kApp), m);
      case Work::CasLifo: {
        wisync::workloads::CasKernelParams params;
        params.duration = kCasCycles;
        return wisync::workloads::runCasKernelOn(
            wisync::workloads::CasKernel::Lifo, m, params);
      }
      case Work::TightLoop: {
        wisync::workloads::TightLoopParams params;
        params.iterations = kTightIterations;
        return wisync::workloads::runTightLoopOn(m, params);
      }
    }
    return {};
}

/** Send-path outcomes summed over every pin: each must occur, or the
 *  pins would not notice a send-path change that mishandles it. */
struct SendPathTotals
{
    std::uint64_t fallbacks = 0;
    std::uint64_t collisions = 0;
    std::uint64_t drops = 0;
    std::uint64_t giveUps = 0;
    std::uint64_t sendReissues = 0;
    std::uint64_t afbFailures = 0;

    void
    add(Machine &m)
    {
        wisync::bm::BmSystem *bm = m.bm();
        if (bm == nullptr)
            return;
        for (std::uint32_t ch = 0; ch < bm->channelCount(); ++ch) {
            const auto &data = bm->dataChannel(ch).stats();
            fallbacks += data.fastpathFallbacks.value();
            collisions += data.collisions.value();
            drops += data.drops.value();
            giveUps += bm->macProtocol(ch).stats().giveUps.value();
        }
        sendReissues += bm->stats().sendReissues.value();
        afbFailures += bm->stats().afbFailures.value();
    }
};

TEST(EventPins, EventsAndDigestPerPoint)
{
    SendPathTotals totals;
    for (const EventPin &pin : kPins) {
        SCOPED_TRACE(pin.label);
        auto cfg = MachineConfig::make(pin.kind, pin.cores);
        cfg.setFastpath(true);
        cfg.seed = 1;
        if (pin.tweak != nullptr)
            pin.tweak(cfg);
        Machine m(cfg);
        const auto r = runPin(pin, m);
        ASSERT_TRUE(r.completed);
        totals.add(m);
        const std::string json =
            wisync::service::ConfigCodec::serializeResult(r);
        EXPECT_EQ(m.engine().eventsExecuted(), pin.events);
        EXPECT_EQ(wisync::sim::fnv1a(json.data(), json.size()), pin.digest);
    }
    EXPECT_GT(totals.fallbacks, 0u);
    EXPECT_GT(totals.collisions, 0u);
    EXPECT_GT(totals.drops, 0u);
    EXPECT_GT(totals.giveUps, 0u);
    EXPECT_GT(totals.sendReissues, 0u);
    EXPECT_GT(totals.afbFailures, 0u);
}

} // namespace
