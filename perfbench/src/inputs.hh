/**
 * @file
 * Seeded input generation for the four benchmark workloads.
 *
 * Everything the simulator receives is derived here from the workload
 * seed with the benchmark's own splitmix64 stream (not the simulator's
 * Rng), so a change to the program can never change its inputs: every
 * sweep point's MachineConfig::seed, and for service_mix the whole
 * request stream text.
 *
 * The amount of work is fixed by (workload, --seconds) alone, sized so
 * one timed loop takes about --seconds on a 4-vCPU x86 host. It never
 * depends on how fast the program runs, so two commits always run the
 * same operations and per-layer counts compare exactly.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "workloads/apps.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/kernel_result.hh"

namespace wisync::core {
class Machine;
}

namespace perfbench {

using namespace wisync;

enum class Workload
{
    AppsSweep,
    CasContention,
    ServiceMix,
    MultichipLossy,
};

const char *name(Workload w);
std::optional<Workload> parseWorkload(const std::string &text);

/** splitmix64: the benchmark's own deterministic stream. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n), n > 0 (modulo bias is irrelevant here). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** A 48-bit seed for (workload seed, stream tag, index). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag,
                         std::uint64_t index);

/** One sweep point: a machine configuration and the kernel it runs. */
struct SweepPoint
{
    std::string label;
    core::MachineConfig config;
    /** App points run this profile; CAS points leave it null. */
    const workloads::AppProfile *app = nullptr;
    workloads::CasKernel casKernel = workloads::CasKernel::Lifo;
    workloads::CasKernelParams cas;

    /** Run the kernel on a machine acquired for `config`. */
    workloads::KernelResult run(core::Machine &machine) const;
};

/** A figure-style sweep, repeated `passes` times in the timed loop. */
struct SweepInputs
{
    std::vector<SweepPoint> points;
    std::size_t passes = 1;
};

/** apps_sweep, cas_contention or multichip_lossy. */
SweepInputs makeSweep(Workload w, std::uint64_t seed, double seconds);

/**
 * service_mix: a closed-loop stream of request lines. Each line is a
 * small batch drawn from a point pool larger than the daemon's result
 * cache, with Zipf(1) popularity over the whole pool.
 */
struct ServiceInputs
{
    /** One JSON request-point object per pool entry. */
    std::vector<std::string> pool;
    /** Request lines, in stream order. */
    std::vector<std::string> lines;
    /** Pool index of every point of every line. */
    std::vector<std::vector<std::uint32_t>> linePoints;
    /** Untimed warm-up request; its point is outside the pool. */
    std::string warmupLine;
};

ServiceInputs makeService(std::uint64_t seed, double seconds);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
