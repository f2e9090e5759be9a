/**
 * @file
 * Golden pins for every encoding derived from the config and result
 * field lists: MachineConfig and WorkloadSpec fingerprints, the
 * canonical result JSON and one on-disk cache record. The constants
 * were produced by the hand-written encoders these lists replaced, so
 * any drift in the stream order, the widths or the version tags fails
 * here before it can orphan a persisted cache or move a digest.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>

#include "core/machine_config.hh"
#include "service/cache_store.hh"
#include "service/config_codec.hh"
#include "service/json.hh"
#include "service/result_cache.hh"
#include "workloads/kernel_result.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::MachineConfig;
using wisync::core::Variant;
using wisync::service::CacheStore;
using wisync::service::ConfigCodec;
using wisync::service::RequestPoint;
using wisync::service::ResultCache;
using wisync::service::WorkloadSpec;
using wisync::wireless::MacKind;
using wisync::workloads::bitIdentical;
using wisync::workloads::CasKernel;
using wisync::workloads::KernelResult;

/** 64 cores over 4 chips, lossy bursty wireless and a bursty bridge. */
MachineConfig
lossyBurstyFourChip()
{
    auto cfg = MachineConfig::make(ConfigKind::WiSync, 64);
    cfg.setFastpath(true);
    cfg.numChips = 4;
    cfg.seed = 1009;
    cfg.wireless.lossPct = 5.0;
    cfg.wireless.berFromSnr = true;
    cfg.wireless.txPowerDbm = 7.5;
    cfg.wireless.burst.enabled = true;
    cfg.wireless.burst.goodLossPct = 0.5;
    cfg.wireless.burst.badLossPct = 80.0;
    cfg.wireless.burst.pGoodToBad = 0.02;
    cfg.wireless.burst.pBadToGood = 0.25;
    cfg.wireless.channelLossBaseDb = 1.5;
    cfg.wireless.channelLossStepDb = 0.75;
    cfg.wireless.spectrumSlots = 2;
    cfg.wireless.ackTimeoutCycles = 6;
    cfg.wireless.maxRetries = 5;
    cfg.wireless.retryBackoffMaxExp = 4;
    cfg.bridge.latencyCycles = 30;
    cfg.bridge.widthBits = 32;
    cfg.bridge.headerBits = 40;
    cfg.bridge.lossPct = 10.0;
    cfg.bridge.burst.enabled = true;
    cfg.bridge.burst.goodLossPct = 1.0;
    cfg.bridge.burst.badLossPct = 90.0;
    cfg.bridge.burst.pGoodToBad = 0.05;
    cfg.bridge.burst.pBadToGood = 0.5;
    cfg.bridge.ackTimeoutCycles = 7;
    cfg.bridge.maxRetries = 3;
    cfg.bridge.retryBackoffMaxExp = 2;
    return cfg;
}

struct ConfigPin
{
    const char *label;
    MachineConfig cfg;
    std::uint64_t fingerprint;
};

std::vector<ConfigPin>
configPins()
{
    auto token = MachineConfig::make(ConfigKind::WiSync, 16);
    token.wireless.macKind = MacKind::Token;
    token.wireless.tokenPassCycles = 3;
    token.wireless.tokenHoldCycles = 2;
    auto adaptive = MachineConfig::make(ConfigKind::WiSyncNoT, 32);
    adaptive.wireless.macKind = MacKind::Adaptive;
    adaptive.wireless.adaptWindowEvents = 16;
    adaptive.wireless.adaptHiPct = 40;
    adaptive.wireless.adaptLoPct = 10;
    adaptive.wireless.maxBackoffExp = 7;
    adaptive.issueWidth = 4;
    auto fuzzy = MachineConfig::make(ConfigKind::WiSync, 16);
    fuzzy.wireless.macKind = MacKind::FuzzyToken;
    fuzzy.wireless.tokenFrameBits = 24;
    return {
        {"baseline16", MachineConfig::make(ConfigKind::Baseline, 16),
         0x368b0ccf634e109dull},
        {"baselineplus64-slownet",
         MachineConfig::make(ConfigKind::BaselinePlus, 64,
                             Variant::SlowNet),
         0x8b3d7def02c8a496ull},
        {"wisyncnot64-slownetl2",
         MachineConfig::make(ConfigKind::WiSyncNoT, 64,
                             Variant::SlowNetL2),
         0x90413304518e3b2dull},
        {"wisync64-slowbmem",
         MachineConfig::make(ConfigKind::WiSync, 64, Variant::SlowBmem),
         0x04a8c056c62c476cull},
        {"wisync16-token", token, 0xea20f3c4000b00faull},
        {"wisyncnot32-adaptive", adaptive, 0xa1ff5c7017797eadull},
        {"wisync16-fuzzytoken", fuzzy, 0xc9fa587b1046278cull},
        {"wisync64-4chip-lossy-bursty", lossyBurstyFourChip(),
         0x477d761356204426ull},
    };
}

TEST(FieldPins, MachineConfigFingerprints)
{
    for (ConfigPin &pin : configPins()) {
        // The fast-path flags are fingerprinted and default from the
        // environment; pin them so WISYNC_NO_FASTPATH cannot move this.
        pin.cfg.setFastpath(true);
        EXPECT_EQ(pin.cfg.fingerprint(), pin.fingerprint)
            << pin.label << ": 0x" << std::hex << pin.cfg.fingerprint();
    }
}

TEST(FieldPins, WorkloadSpecFingerprints)
{
    WorkloadSpec tight;
    WorkloadSpec tightBudget;
    tightBudget.tightLoop.iterations = 7;
    tightBudget.tightLoop.arrayElems = 12;
    tightBudget.tightLoop.runLimit = 900000;
    tightBudget.maxCycles = 5000;
    WorkloadSpec cas;
    cas.kind = WorkloadSpec::Kind::Cas;
    WorkloadSpec casBudget = cas;
    casBudget.casKernel = CasKernel::Fifo;
    casBudget.cas.criticalSectionInstr = 64;
    casBudget.cas.duration = 12345;
    casBudget.maxCycles = 20000;

    EXPECT_EQ(tight.fingerprint(), 0x30982727af00c16dull)
        << std::hex << tight.fingerprint();
    EXPECT_EQ(tightBudget.fingerprint(), 0x8ad95ea08494bad0ull)
        << std::hex << tightBudget.fingerprint();
    EXPECT_EQ(cas.fingerprint(), 0xd0547ac3f3a8d04bull)
        << std::hex << cas.fingerprint();
    EXPECT_EQ(casBudget.fingerprint(), 0x4e909da864796dd4ull)
        << std::hex << casBudget.fingerprint();
}

/** Every counter non-zero and distinct, host counters included. */
KernelResult
fullResult()
{
    KernelResult r;
    r.cycles = 123456789;
    r.completed = true;
    r.operations = 4242;
    r.dataChannelUtilisation = 0.3141592653589793;
    r.collisions = 17;
    r.macBackoffCycles = 901;
    r.macTokenWaits = 33;
    r.macTokenRotations = 44;
    r.macModeSwitches = 5;
    r.wirelessDrops = 66;
    r.macAckTimeouts = 66;
    r.macRetransmits = 60;
    r.macGiveups = 6;
    r.bridgeFrames = 777;
    r.bridgeBusyCycles = 8888;
    r.staleRmwAborts = 9;
    r.bridgeDrops = 21;
    r.bridgeAckTimeouts = 21;
    r.bridgeRetransmits = 19;
    r.bridgeGiveups = 2;
    r.fastpathHits = 31337;
    r.fastpathFallbacks = 271;
    return r;
}

TEST(FieldPins, SerializeResultString)
{
    EXPECT_EQ(
        ConfigCodec::serializeResult(fullResult()),
        "{\"cycles\":123456789,\"completed\":true,\"operations\":4242,"
        "\"dataChannelUtilisation\":0.3141592653589793,"
        "\"collisions\":17,\"macBackoffCycles\":901,"
        "\"macTokenWaits\":33,\"macTokenRotations\":44,"
        "\"macModeSwitches\":5,\"wirelessDrops\":66,"
        "\"macAckTimeouts\":66,\"macRetransmits\":60,\"macGiveups\":6,"
        "\"bridgeFrames\":777,\"bridgeBusyCycles\":8888,"
        "\"staleRmwAborts\":9,\"bridgeDrops\":21,"
        "\"bridgeAckTimeouts\":21,\"bridgeRetransmits\":19,"
        "\"bridgeGiveups\":2}");
}

/** The point of the pinned cache record below. */
RequestPoint
recordPoint()
{
    RequestPoint p;
    p.config = lossyBurstyFourChip();
    p.workload.kind = WorkloadSpec::Kind::Cas;
    p.workload.casKernel = CasKernel::Add;
    p.workload.cas.criticalSectionInstr = 256;
    p.workload.cas.duration = 40000;
    p.workload.maxCycles = 60000;
    return p;
}

/** CacheStore::encodeRecord(recordPoint(), fullResult()), as hex. */
constexpr const char *kRecordHex =
    "0f04000085467474d80774b2a914e33d919447283e0f9bbf530300007b22636f"
    "6e666967223a7b226b696e64223a22576953796e63222c2276617269616e7422"
    "3a2244656661756c74222c22636f726573223a36342c226368697073223a342c"
    "2269737375655769647468223a322c2273656564223a313030392c2277697265"
    "6c657373223a7b226c6f7373506374223a352c226275727374223a7b22656e61"
    "626c6564223a747275652c22676f6f644c6f7373506374223a302e352c226261"
    "644c6f7373506374223a38302c2270476f6f64546f426164223a302e30322c22"
    "70426164546f476f6f64223a302e32357d2c2261636b54696d656f7574437963"
    "6c6573223a362c226d617852657472696573223a352c2272657472794261636b"
    "6f66664d6178457870223a342c2262657246726f6d536e72223a747275652c22"
    "7478506f77657244626d223a372e352c226368616e6e656c4c6f737342617365"
    "4462223a312e352c226368616e6e656c4c6f7373537465704462223a302e3735"
    "2c22737065637472756d536c6f7473223a322c226d6163223a22425253222c22"
    "6d61784261636b6f6666457870223a31302c22746f6b656e506173734379636c"
    "6573223a302c22746f6b656e4672616d6542697473223a31362c22746f6b656e"
    "486f6c644379636c6573223a302c22616461707457696e646f774576656e7473"
    "223a33322c2261646170744869506374223a32352c2261646170744c6f506374"
    "223a32357d2c22627269646765223a7b226c6174656e63794379636c6573223a"
    "33302c22776964746842697473223a33322c2268656164657242697473223a34"
    "302c226c6f7373506374223a31302c226275727374223a7b22656e61626c6564"
    "223a747275652c22676f6f644c6f7373506374223a312c226261644c6f737350"
    "6374223a39302c2270476f6f64546f426164223a302e30352c2270426164546f"
    "476f6f64223a302e357d2c2261636b54696d656f75744379636c6573223a372c"
    "226d617852657472696573223a332c2272657472794261636b6f66664d617845"
    "7870223a327d7d2c22776f726b6c6f6164223a7b226b696e64223a2263617322"
    "2c226b65726e656c223a22616464222c22637269746963616c53656374696f6e"
    "496e737472223a3235362c226475726174696f6e223a34303030302c226d6178"
    "4379636c6573223a36303030307d7d15cd5b0700000000010000000000000092"
    "10000000000000e0f09c762f1bd43f1100000000000000850300000000000021"
    "000000000000002c000000000000000500000000000000420000000000000042"
    "000000000000003c0000000000000006000000000000000903000000000000b8"
    "2200000000000009000000000000001500000000000000150000000000000013"
    "000000000000000200000000000000697a0000000000000f01000000000000";

std::string
fromHex(const std::string &hex)
{
    std::string out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<char>(
            std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

std::string
toHex(const std::string &bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

std::uint64_t
readU64(const std::string &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
    return v;
}

std::uint32_t
readU32(const std::string &bytes, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
    return v;
}

void
expectSameResult(const KernelResult &got, const KernelResult &want)
{
    EXPECT_TRUE(bitIdentical(got, want));
    EXPECT_EQ(got.fastpathHits, want.fastpathHits);
    EXPECT_EQ(got.fastpathFallbacks, want.fastpathFallbacks);
}

TEST(FieldPins, CacheRecordLoadsWarmAndRoundTrips)
{
    const std::string golden = fromHex(kRecordHex);
    const std::string fresh =
        CacheStore::encodeRecord(recordPoint(), fullResult());
    ASSERT_FALSE(golden.empty()) << toHex(fresh);

    // Warm: the parent-produced bytes load and answer the point.
    const std::string path = ::testing::TempDir() + "wisync_fieldpin_" +
                             std::to_string(::getpid()) + ".bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        const std::string file = CacheStore::encodeHeader() + golden;
        f.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    ResultCache cache(4);
    const auto stats = CacheStore::load(cache, path);
    std::remove(path.c_str());
    EXPECT_TRUE(stats.headerOk);
    EXPECT_EQ(stats.loaded, 1u);
    EXPECT_EQ(stats.discarded, 0u) << stats.error;
    const KernelResult *hit = cache.lookup(recordPoint());
    ASSERT_NE(hit, nullptr);
    expectSameResult(*hit, fullResult());

    // Round trip: re-encoding the point carries the same fingerprint,
    // the same result words and a JSON body that parses back to the
    // same point (its key order is the codec's canonical order).
    ASSERT_EQ(fresh.size(), golden.size());
    EXPECT_EQ(fresh.substr(0, 8), golden.substr(0, 8)); // length+check
    EXPECT_EQ(readU64(fresh, 16), readU64(golden, 16)); // fingerprint
    const std::uint32_t jsonBytes = readU32(golden, 24);
    const std::size_t words = 28 + jsonBytes;
    EXPECT_EQ(toHex(fresh.substr(words)), toHex(golden.substr(words)));
    const auto doc = wisync::service::Json::parse(
        golden.substr(28, jsonBytes));
    EXPECT_EQ(ConfigCodec::parseConfig(*doc.find("config")),
              recordPoint().config);
    EXPECT_EQ(ConfigCodec::parseWorkload(*doc.find("workload")),
              recordPoint().workload);
}

} // namespace
