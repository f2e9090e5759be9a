#include "core/machine_config.hh"

#include <cstdio>

namespace wisync::core {

const char *
toString(ConfigKind kind)
{
    switch (kind) {
      case ConfigKind::Baseline:
        return "Baseline";
      case ConfigKind::BaselinePlus:
        return "Baseline+";
      case ConfigKind::WiSyncNoT:
        return "WiSyncNoT";
      case ConfigKind::WiSync:
        return "WiSync";
    }
    return "?";
}

const char *
toString(Variant variant)
{
    switch (variant) {
      case Variant::Default:
        return "Default";
      case Variant::SlowNet:
        return "SlowNet";
      case Variant::SlowNetL2:
        return "SlowNet+L2";
      case Variant::FastNet:
        return "FastNet";
      case Variant::SlowBmem:
        return "SlowBMEM";
    }
    return "?";
}

MachineConfig
MachineConfig::make(ConfigKind kind, std::uint32_t cores, Variant variant)
{
    MachineConfig cfg;
    cfg.kind = kind;
    cfg.variant = variant;
    cfg.numCores = cores;
    cfg.mesh.numNodes = cores;
    cfg.mesh.treeMulticast = (kind == ConfigKind::BaselinePlus);

    switch (variant) {
      case Variant::Default:
        break;
      case Variant::SlowNet:
        cfg.mesh.hopCycles = 6;
        break;
      case Variant::SlowNetL2:
        cfg.mesh.hopCycles = 6;
        cfg.mem.l2RtCycles = 12;
        break;
      case Variant::FastNet:
        cfg.mesh.hopCycles = 2;
        break;
      case Variant::SlowBmem:
        cfg.bm.bmRtCycles = 4;
        break;
    }
    return cfg;
}

bool
MachineConfig::compatibleShape(const MachineConfig &other) const
{
    // kind is deliberately NOT structural: every machine carries the
    // full wired + wireless substrate, and reset() re-gates it, so a
    // sweep over the four kinds reuses one machine per core count.
    return sim::sameFields(*this, other, sim::kShape, sim::kNoFlags);
}

std::uint64_t
MachineConfig::fingerprint() const
{
    // "WSFG" NN: the version tag leads the stream, so stale persisted
    // fingerprints (the on-disk result cache) never alias a new layout.
    return sim::fieldFingerprint(*this, 0x5753464700ull + kFingerprintVersion);
}

std::optional<sim::FieldIssue>
validate(const MachineConfig &cfg)
{
    if (auto issue = sim::findRangeIssue(cfg))
        return issue;
    if (cfg.numCores % cfg.numChips != 0)
        return sim::FieldIssue{"chips",
                               "cores (" + std::to_string(cfg.numCores) +
                                   ") must divide evenly over chips (" +
                                   std::to_string(cfg.numChips) + ")"};
    if (cfg.mesh.numNodes != cfg.numCores)
        return sim::FieldIssue{"mesh.numNodes",
                               "must equal cores (use MachineConfig::make)"};
    if (cfg.wireless.collisionCycles >= cfg.wireless.dataCycles)
        return sim::FieldIssue{"wireless.collisionCycles",
                               "must be below wireless.dataCycles"};
    return std::nullopt;
}

namespace {

/** " <key>=g…%/b…%,pgb=…,pbg=…": an enabled Gilbert–Elliott chain. */
std::string
burstLabel(const char *key, const wireless::BurstParams &burst)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %s=g%g%%/b%g%%,pgb=%g,pbg=%g", key,
                  burst.goodLossPct, burst.badLossPct, burst.pGoodToBad,
                  burst.pBadToGood);
    return buf;
}

} // namespace

std::string
MachineConfig::describe() const
{
    std::string out = toString(kind);
    out += " cores=" + std::to_string(numCores);
    // Only off the default, so single-chip output stays byte-identical
    // to pre-multichip builds.
    if (numChips > 1) {
        out += " chips=" + std::to_string(numChips);
        // The bridge knobs change multi-chip behavior, so two sweep
        // points differing only in bridge config must not print
        // identical labels (they used to: the lossy-knob rule below
        // had not been applied to the bridge).
        char buf[128];
        std::snprintf(buf, sizeof(buf), " bridge=lat%llu,w%u",
                      static_cast<unsigned long long>(
                          bridge.latencyCycles),
                      bridge.widthBits);
        out += buf;
        if (bridge.lossPct > 0.0 || bridge.burst.enabled) {
            std::snprintf(
                buf, sizeof(buf),
                " bloss=%g%% back=%llu,%u,%u", bridge.lossPct,
                static_cast<unsigned long long>(bridge.ackTimeoutCycles),
                bridge.maxRetries, bridge.retryBackoffMaxExp);
            out += buf;
            if (bridge.burst.enabled)
                out += burstLabel("bburst", bridge.burst);
        }
    }
    out += " variant=";
    out += toString(variant);
    // Mentioned only off the default so pre-MAC-subsystem harness
    // output stays byte-identical on BRS configs.
    if (wireless.macKind != wireless::MacKind::Brs) {
        out += " mac=";
        out += toString(wireless.macKind);
    }
    // Likewise: the loss model only appears when enabled, keeping
    // ideal-channel harness output byte-identical to pre-loss builds.
    if (wireless.lossPct > 0.0 || wireless.berFromSnr) {
        // The retry knobs change behavior whenever the channel is
        // lossy, so two sweep points differing only in them must not
        // print identical labels.
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      " loss=%g%%%s ack=%llu retries=%u boexp=%u",
                      wireless.lossPct, wireless.berFromSnr ? "+snr" : "",
                      static_cast<unsigned long long>(
                          wireless.ackTimeoutCycles),
                      wireless.maxRetries, wireless.retryBackoffMaxExp);
        out += buf;
    }
    // Burst and per-channel-profile knobs, likewise only off their
    // defaults (the i.i.d./flat-spectrum labels are unchanged).
    if (wireless.burst.enabled)
        out += burstLabel("burst", wireless.burst);
    if (wireless.channelLossBaseDb != 0.0 ||
        wireless.channelLossStepDb != 0.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " chloss=%g+%gdB",
                      wireless.channelLossBaseDb,
                      wireless.channelLossStepDb);
        out += buf;
    }
    return out;
}

} // namespace wisync::core
