#include "inputs.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/machine.hh"

namespace perfbench {

namespace {

using core::ConfigKind;

constexpr std::array<ConfigKind, 4> kKinds = {
    ConfigKind::Baseline, ConfigKind::BaselinePlus, ConfigKind::WiSyncNoT,
    ConfigKind::WiSync};

/** Stream tags: one independent seed family per use. */
enum Tag : std::uint64_t
{
    kTagApps = 1,
    kTagCas = 2,
    kTagMultichip = 3,
    kTagPool = 4,
    kTagStream = 5,
    kTagWarmup = 6,
};

/**
 * Host seconds one pass of each sweep takes on the reference host
 * (single thread, 4-vCPU x86); the timed loop runs
 * round(--seconds / pass) passes, at least one.
 */
constexpr double kAppsPassS = 8.0;
constexpr double kCasPassS = 5.0;
constexpr double kMultichipPassS = 2.6;
/** service_mix request lines per --seconds. */
constexpr double kServiceLinesPerS = 100.0;

/** The 10 sync-heavy apps of the fig. 11 subset. */
constexpr std::array<const char *, 10> kSyncHeavyApps = {
    "streamcluster", "ocean-c", "raytrace", "radiosity", "water-ns",
    "barnes",        "fft",     "blackscholes", "canneal", "lu-c"};

std::size_t
passesFor(double seconds, double pass_s)
{
    return static_cast<std::size_t>(
        std::max(1.0, std::round(seconds / pass_s)));
}

const char *
casName(workloads::CasKernel k)
{
    switch (k) {
      case workloads::CasKernel::Fifo:
        return "fifo";
      case workloads::CasKernel::Lifo:
        return "lifo";
      case workloads::CasKernel::Add:
        return "add";
    }
    return "?";
}

// ---- service_mix pool ---------------------------------------------
//
// 32 cells = {tightloop, cas fifo, cas lifo, cas add} x {16, 64} cores
// x four kinds, each with kPoolSeeds config seeds: 640 points against
// the daemon's default 256-entry result cache.

constexpr std::uint32_t kPoolSeeds = 20;
constexpr std::uint32_t kPoolCells = 4 * 2 * 4;
constexpr std::uint32_t kPointsPerLine = 4;
constexpr double kZipfS = 1.0;

std::string
pointJson(ConfigKind kind, std::uint32_t cores, std::uint64_t seed,
          const std::string &workload)
{
    return "{\"config\":{\"kind\":\"" + std::string(core::toString(kind)) +
           "\",\"cores\":" + std::to_string(cores) +
           ",\"seed\":" + std::to_string(seed) + "},\"workload\":" +
           workload + "}";
}

std::string
poolWorkload(std::uint32_t w)
{
    if (w == 0)
        return "{\"kind\":\"tightloop\",\"iterations\":10,"
               "\"arrayElems\":50}";
    static constexpr std::array<workloads::CasKernel, 3> kernels = {
        workloads::CasKernel::Fifo, workloads::CasKernel::Lifo,
        workloads::CasKernel::Add};
    return "{\"kind\":\"cas\",\"kernel\":\"" +
           std::string(casName(kernels[w - 1])) +
           "\",\"criticalSectionInstr\":256,\"duration\":20000}";
}

std::string
requestLine(const std::vector<std::string> &points)
{
    std::string line = "{\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i)
        line += (i ? "," : "") + points[i];
    return line + "]}";
}

} // namespace

const char *
name(Workload w)
{
    switch (w) {
      case Workload::AppsSweep:
        return "apps_sweep";
      case Workload::CasContention:
        return "cas_contention";
      case Workload::ServiceMix:
        return "service_mix";
      case Workload::MultichipLossy:
        return "multichip_lossy";
    }
    return "?";
}

std::optional<Workload>
parseWorkload(const std::string &text)
{
    for (const Workload w :
         {Workload::AppsSweep, Workload::CasContention,
          Workload::ServiceMix, Workload::MultichipLossy}) {
        if (text == name(w))
            return w;
    }
    return std::nullopt;
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index)
{
    SplitMix mix(seed ^ (tag << 56) ^ (index * 0xD1B54A32D192ED03ull));
    mix.next();
    return mix.next() >> 16;
}

workloads::KernelResult
SweepPoint::run(core::Machine &machine) const
{
    return app != nullptr
               ? workloads::runAppOn(*app, machine)
               : workloads::runCasKernelOn(casKernel, machine, cas);
}

SweepInputs
makeSweep(Workload w, std::uint64_t seed, double seconds)
{
    SweepInputs in;
    switch (w) {
      case Workload::AppsSweep: {
        // Fig. 10: the 26-app suite x four kinds at 64 cores. One
        // config seed per app, shared by its four kinds.
        const auto &suite = workloads::appSuite();
        for (std::size_t a = 0; a < suite.size(); ++a) {
            for (const ConfigKind kind : kKinds) {
                SweepPoint p;
                p.label = suite[a].name + "/" + core::toString(kind);
                p.config = core::MachineConfig::make(kind, 64);
                p.config.seed = deriveSeed(seed, kTagApps, a);
                p.app = &suite[a];
                in.points.push_back(std::move(p));
            }
        }
        in.passes = passesFor(seconds, kAppsPassS);
        break;
      }
      case Workload::CasContention: {
        // Fig. 9: FIFO/LIFO/ADD x critical sections x four kinds.
        std::uint64_t cell = 0;
        for (const auto kernel :
             {workloads::CasKernel::Fifo, workloads::CasKernel::Lifo,
              workloads::CasKernel::Add}) {
            for (const std::uint32_t cs : {4096u, 256u, 16u}) {
                for (const ConfigKind kind : kKinds) {
                    SweepPoint p;
                    p.label = std::string(casName(kernel)) + "/cs" +
                              std::to_string(cs) + "/" +
                              core::toString(kind);
                    p.config = core::MachineConfig::make(kind, 64);
                    p.config.seed = deriveSeed(seed, kTagCas, cell);
                    p.casKernel = kernel;
                    p.cas.criticalSectionInstr = cs;
                    p.cas.duration = 200'000 + sim::Cycle{cs} * 16;
                    in.points.push_back(std::move(p));
                }
                ++cell;
            }
        }
        in.passes = passesFor(seconds, kCasPassS);
        break;
      }
      case Workload::MultichipLossy: {
        // 64 cores over 2 and 4 chips, lossy wireless and bridge.
        for (const std::uint32_t chips : {2u, 4u}) {
            for (const ConfigKind kind :
                 {ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
                for (std::size_t a = 0; a < kSyncHeavyApps.size(); ++a) {
                    SweepPoint p;
                    p.label = std::string(kSyncHeavyApps[a]) + "/" +
                              core::toString(kind) + "/chips" +
                              std::to_string(chips);
                    p.config = core::MachineConfig::make(kind, 64);
                    p.config.numChips = chips;
                    p.config.wireless.lossPct = 5.0;
                    p.config.bridge.lossPct = 10.0;
                    p.config.seed = deriveSeed(seed, kTagMultichip, a);
                    p.app = &workloads::appByName(kSyncHeavyApps[a]);
                    in.points.push_back(std::move(p));
                }
            }
        }
        in.passes = passesFor(seconds, kMultichipPassS);
        break;
      }
      case Workload::ServiceMix:
        break;
    }
    return in;
}

ServiceInputs
makeService(std::uint64_t seed, double seconds)
{
    ServiceInputs in;
    for (std::uint32_t cell = 0; cell < kPoolCells; ++cell) {
        const std::uint32_t w = cell / 8;
        const std::uint32_t cores = (cell / 4) % 2 == 0 ? 16 : 64;
        const ConfigKind kind = kKinds[cell % 4];
        for (std::uint32_t s = 0; s < kPoolSeeds; ++s) {
            const std::uint32_t index = cell * kPoolSeeds + s;
            in.pool.push_back(pointJson(kind, cores,
                                        deriveSeed(seed, kTagPool, index),
                                        poolWorkload(w)));
        }
    }

    // Popularity: Zipf(s) over the whole pool, as in the stream the
    // daemon was probed with: a seeded shuffle gives each pool point its
    // rank, and the point of rank r has weight 1 / (r + 1)^s. Every
    // point of every line is an independent draw.
    std::vector<std::uint32_t> byRank(in.pool.size());
    for (std::uint32_t i = 0; i < byRank.size(); ++i)
        byRank[i] = i;
    SplitMix rng(deriveSeed(seed, kTagStream, 0));
    for (std::size_t i = byRank.size() - 1; i > 0; --i)
        std::swap(byRank[i], byRank[rng.below(i + 1)]);
    std::vector<double> cdf(byRank.size());
    double total = 0.0;
    for (std::size_t r = 0; r < cdf.size(); ++r) {
        total += 1.0 / std::pow(double(r + 1), kZipfS);
        cdf[r] = total;
    }
    const auto lines = static_cast<std::size_t>(
        std::max(1.0, std::round(seconds * kServiceLinesPerS)));
    for (std::size_t l = 0; l < lines; ++l) {
        std::vector<std::uint32_t> slots;
        std::vector<std::string> points;
        for (std::uint32_t k = 0; k < kPointsPerLine; ++k) {
            const auto rank = static_cast<std::size_t>(
                std::upper_bound(cdf.begin(), cdf.end(),
                                 rng.uniform() * total) -
                cdf.begin());
            const std::uint32_t index =
                byRank[std::min(rank, byRank.size() - 1)];
            slots.push_back(index);
            points.push_back(in.pool[index]);
        }
        in.lines.push_back(requestLine(points));
        in.linePoints.push_back(std::move(slots));
    }
    // The pool's largest shape and busiest kernel, with a shorter
    // window than any pool point so it can never hit.
    in.warmupLine = requestLine({pointJson(
        ConfigKind::WiSync, 64, deriveSeed(seed, kTagWarmup, 0),
        "{\"kind\":\"cas\",\"kernel\":\"lifo\","
        "\"criticalSectionInstr\":256,\"duration\":10000}")});
    return in;
}

} // namespace perfbench
