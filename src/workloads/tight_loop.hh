/**
 * @file
 * The TightLoop barrier kernel (paper §6, Fig. 7).
 *
 * "Each thread adds-up the contents of a 50-element array into a local
 * variable and then synchronizes in a barrier. The process repeats in
 * a loop." A very demanding barrier environment: the compute phase is
 * ~100 cycles, so barrier cost dominates.
 */

#ifndef WISYNC_WORKLOADS_TIGHT_LOOP_HH
#define WISYNC_WORKLOADS_TIGHT_LOOP_HH

#include <cstdint>

#include "core/machine_config.hh"
#include "workloads/kernel_result.hh"

namespace wisync::core {
class Machine;
}

namespace wisync::workloads {

/** TightLoop parameters. */
struct TightLoopParams
{
    /** Barrier iterations measured. */
    std::uint32_t iterations = 20;
    /** Elements summed per thread per iteration (paper: 50). */
    std::uint32_t arrayElems = 50;
    /** Largest arrayElems a request may ask for: 8 MiB of array per
     *  thread, already far past any cache the model has. */
    static constexpr std::uint32_t kMaxArrayElems = 1u << 20;
    /** Abort horizon (degenerate MAC policies can livelock). */
    sim::Cycle runLimit = 4'000'000'000ull;

    /** Field-wise equality (service WorkloadSpec dedupe). */
    bool operator==(const TightLoopParams &) const = default;

    /** Relative length estimate for shard cost-planning: work per
     *  thread scales with iterations x per-iteration compute. Not a
     *  cycle prediction — only ratios between points matter. */
    std::uint64_t
    lengthEstimate() const
    {
        return std::uint64_t(iterations) * (std::uint64_t(arrayElems) + 1);
    }
};

/**
 * Run TightLoop with one thread per core.
 * @return cycles, with operations = iterations (use cycles/operations
 *         for the paper's cycles-per-iteration metric).
 */
KernelResult runTightLoop(core::ConfigKind kind, std::uint32_t cores,
                          const TightLoopParams &params = {},
                          core::Variant variant = core::Variant::Default);

/** As runTightLoop but with a fully custom machine config (used by
 *  the MAC-backoff ablation bench). */
KernelResult runTightLoopCfg(const core::MachineConfig &cfg,
                             const TightLoopParams &params = {});

/**
 * As runTightLoopCfg but on a caller-prepared machine (freshly built
 * or reset — see harness::SweepHarness); one thread per core.
 */
KernelResult runTightLoopOn(core::Machine &machine,
                            const TightLoopParams &params = {});

} // namespace wisync::workloads

#endif // WISYNC_WORKLOADS_TIGHT_LOOP_HH
