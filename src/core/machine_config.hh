/**
 * @file
 * Chip configuration: the paper's Tables 1, 2 and 6 as code.
 */

#ifndef WISYNC_CORE_MACHINE_CONFIG_HH
#define WISYNC_CORE_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>

#include "bm/bm_system.hh"
#include "mem/mem_system.hh"
#include "noc/chip_bridge.hh"
#include "noc/mesh.hh"
#include "sim/fields.hh"
#include "wireless/data_channel.hh"

namespace wisync::core {

/** The four architecture configurations compared in Table 2. */
enum class ConfigKind
{
    /** Plain manycore: CAS locks + centralized barrier. */
    Baseline,
    /** + virtual-tree broadcast NoC, MCS locks, tournament barriers. */
    BaselinePlus,
    /** WiSync without the Tone channel. */
    WiSyncNoT,
    /** Full WiSync: Data + Tone channels. */
    WiSync,
};

/** The memory/network variants of Table 6 (sensitivity study). */
enum class Variant
{
    Default,  // L2 RT 6, BM RT 2, hop 4
    SlowNet,  // hop 6
    SlowNetL2, // hop 6, L2 RT 12
    FastNet,  // hop 2
    SlowBmem, // BM RT 4
};

const char *toString(ConfigKind kind);
const char *toString(Variant variant);

/** Everything needed to build a Machine. */
struct MachineConfig
{
    ConfigKind kind = ConfigKind::WiSync;
    Variant variant = Variant::Default;
    std::uint32_t numCores = 64;
    /**
     * Chips in the package. numCores counts the whole machine and must
     * divide evenly; chip c owns the contiguous node range
     * [c * coresPerChip(), (c+1) * coresPerChip()). Each chip gets its
     * own BM replica group, tone channel and die geometry; the
     * FrequencyPlan maps chips onto data channels and the ChipBridge
     * carries global BM updates between chips. Behavioral, not
     * structural: reset() may change it freely on one machine.
     */
    std::uint32_t numChips = 1;
    /** Issue width of the 1 GHz OoO core (Table 1: 2-issue). */
    std::uint32_t issueWidth = 2;
    std::uint64_t seed = 42;

    mem::MemConfig mem;
    noc::MeshConfig mesh;
    wireless::WirelessConfig wireless;
    bm::BmConfig bm;
    noc::BridgeConfig bridge;

    std::uint32_t coresPerChip() const { return numCores / numChips; }
    std::uint32_t
    chipOf(sim::NodeId node) const
    {
        return node / coresPerChip();
    }

    bool
    hasWireless() const
    {
        return kind == ConfigKind::WiSyncNoT || kind == ConfigKind::WiSync;
    }
    bool hasTone() const { return kind == ConfigKind::WiSync; }

    /** Build a coherent config for @p kind / @p cores / @p variant. */
    static MachineConfig make(ConfigKind kind, std::uint32_t cores,
                              Variant variant = Variant::Default);

    /**
     * Toggle the uncontended fast paths of the mesh routes and the L1
     * hits together (the wireless broadcast has one send path).
     * Behavioral and shape-compatible: a reset may flip it freely;
     * simulated cycles are identical either way (the env kill switch
     * WISYNC_NO_FASTPATH=1 sets the same flags at config build time).
     */
    void
    setFastpath(bool on)
    {
        mesh.fastpath = on;
        mem.fastpath = on;
    }

    /**
     * True when a Machine built from this config can be reused for
     * @p other via Machine::reset: the same kShape fields (core
     * count, cache/BM capacities, controller counts). The kind,
     * timing knobs, seed and issue width may differ freely — reset()
     * re-applies them (the wireless substrate is always built and
     * merely gated per kind).
     */
    bool compatibleShape(const MachineConfig &other) const;

    /**
     * Full field-wise equality over every knob, including the
     * sub-configs. Two equal configs simulate bit-identically (the
     * determinism contract), which is what makes the service result
     * cache exact.
     */
    bool operator==(const MachineConfig &) const = default;

    /**
     * Canonical 64-bit fingerprint: FNV-1a over every visitFields()
     * entry in order, each widened to 8 bytes (doubles by bit
     * pattern). Process- and run-stable, so it keys the service
     * ResultCache and names shard work items across processes and
     * hosts. The cache also verifies equality on hits, so a 64-bit
     * collision degrades to a miss, never a wrong result.
     */
    std::uint64_t fingerprint() const;

    /**
     * Version of the fingerprint stream. A new knob is declared once,
     * appended to its record's visitFields(); moving or removing an
     * entry must bump this, so the on-disk result cache never aliases
     * an old layout (it is folded into CacheStore's format version).
     */
    static constexpr std::uint64_t kFingerprintVersion = 3;

    /** The field list (sim/fields.hh); cores are capped at a
     *  kilocore package, cross-field rules live in validate(). */
    template <class Self, class V>
    static void
    visitFields(Self &self, V &v)
    {
        using sim::field, sim::group, sim::kJson, sim::kShape, sim::kNoFlags;
        v(field("kind", self.kind, ConfigKind::Baseline, ConfigKind::WiSync,
                kJson));
        v(field("variant", self.variant, Variant::Default, Variant::SlowBmem,
                kJson));
        v(field("cores", self.numCores, 1, 1024, kJson | kShape));
        v(field("chips", self.numChips, 1, 1024, kJson));
        v(field("issueWidth", self.issueWidth, 1, UINT32_MAX, kJson));
        v(field("seed", self.seed, kJson));
        v(group("mem", self.mem, kNoFlags));
        v(group("mesh", self.mesh, kNoFlags));
        v(group("wireless", self.wireless, kJson));
        v(group("bm", self.bm, kNoFlags));
        v(group("bridge", self.bridge, kJson));
    }

    /** Human-readable one-liner for harness output. */
    std::string describe() const;
};

/**
 * The one config validator: every declared range, then the cross-field
 * rules. @return the first issue, its path in JSON names (e.g.
 * "wireless.burst.pGoodToBad"); the codec reports it as a ParseError,
 * Machine's constructor and reset() treat it as fatal.
 */
std::optional<sim::FieldIssue> validate(const MachineConfig &cfg);

} // namespace wisync::core

#endif // WISYNC_CORE_MACHINE_CONFIG_HH
