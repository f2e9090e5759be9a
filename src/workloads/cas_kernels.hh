/**
 * @file
 * Lock-free CAS kernels (paper §6, Fig. 9).
 *
 * ADD:  threads insert nodes from private pools into a shared
 *       lock-free structure through a CAS on its head word.
 * LIFO: threads alternately push to / pop from a Treiber stack.
 * FIFO: threads alternately enqueue at the tail / dequeue at the head
 *       of a two-pointer lock-free queue.
 *
 * A configurable number of instructions executes between consecutive
 * operations (the paper's "critical section size"). The metric is
 * successful CASes per 1000 cycles. On WiSync the hot words (head /
 * tail) live in the BM and use the Fig. 4(b) CAS-with-AFB protocol;
 * on Baseline they are ordinary coherent memory words.
 */

#ifndef WISYNC_WORKLOADS_CAS_KERNELS_HH
#define WISYNC_WORKLOADS_CAS_KERNELS_HH

#include <cstdint>

#include "core/machine_config.hh"
#include "workloads/kernel_result.hh"

namespace wisync::core {
class Machine;
}

namespace wisync::workloads {

/** Which CAS kernel. */
enum class CasKernel
{
    Fifo,
    Lifo,
    Add,
};

/** "fifo", "lifo" or "add" (the service's JSON spelling). */
const char *toString(CasKernel kernel);

/** CAS-kernel parameters. */
struct CasKernelParams
{
    /** Instructions executed between consecutive CAS operations. */
    std::uint32_t criticalSectionInstr = 1024;
    /** Simulated cycles to run (throughput window). */
    sim::Cycle duration = 300'000;

    /** Field-wise equality (service WorkloadSpec dedupe). */
    bool operator==(const CasKernelParams &) const = default;

    /** Relative length estimate for shard cost-planning: the kernel
     *  runs for a fixed simulated window, so the window is the
     *  length. Only ratios between points matter. */
    std::uint64_t lengthEstimate() const { return duration; }
};

/**
 * Run the kernel with one thread per core.
 * operations = successful CASes; opsPerKiloCycle() is Fig. 9's metric.
 */
KernelResult runCasKernel(CasKernel kernel, core::ConfigKind kind,
                          std::uint32_t cores,
                          const CasKernelParams &params = {});

/** As runCasKernel but on a caller-prepared (fresh or reset) machine. */
KernelResult runCasKernelOn(CasKernel kernel, core::Machine &machine,
                            const CasKernelParams &params = {});

} // namespace wisync::workloads

#endif // WISYNC_WORKLOADS_CAS_KERNELS_HH
