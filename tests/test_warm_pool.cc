/**
 * @file
 * The sweep service's warm machine pool: machines outlive the batch
 * that built them and later batches are served by Machine::reset, at
 * any thread count, without changing a result bit.
 *
 * Every test here is named ServiceWarmPool* so the CI TSan job's
 * "Service" pattern covers it, and a second ctest entry reruns the
 * suite with WISYNC_NO_REUSE=1, where every point must build.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "core/machine_config.hh"
#include "coro/frame_pool.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep.hh"
#include "service/config_codec.hh"
#include "service/daemon.hh"
#include "service/fault.hh"
#include "service/json.hh"
#include "service/sweep_service.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/kernel_result.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::core::Machine;
using wisync::core::MachineConfig;
using wisync::harness::ParallelSweep;
using wisync::harness::SweepHarness;
using wisync::service::BatchStats;
using wisync::service::FaultPlan;
using wisync::service::RequestPoint;
using wisync::service::ServiceOutcome;
using wisync::service::SweepRequest;
using wisync::service::SweepService;
using wisync::service::WorkloadSpec;
using wisync::workloads::KernelResult;
using wisync::workloads::bitIdentical;

constexpr ConfigKind kKinds[] = {ConfigKind::Baseline,
                                 ConfigKind::BaselinePlus,
                                 ConfigKind::WiSyncNoT, ConfigKind::WiSync};

RequestPoint
point(ConfigKind kind, std::uint32_t cores, std::uint32_t chips,
      bool lossy, bool cas, std::uint64_t seed)
{
    RequestPoint p;
    p.config = MachineConfig::make(kind, cores);
    p.config.numChips = chips;
    p.config.seed = seed;
    if (lossy)
        p.config.wireless.lossPct = 5;
    if (cas) {
        p.workload.kind = WorkloadSpec::Kind::Cas;
        p.workload.cas.duration = 1500;
    } else {
        p.workload.tightLoop.iterations = 3;
        p.workload.tightLoop.arrayElems = 10;
    }
    return p;
}

/**
 * Every kind at 16 and 64 cores over 1, 2 and 4 chips, on ideal and
 * lossy channels, alternating tightloop and CAS. Two machine shapes.
 */
SweepRequest
mixedBatch(std::uint64_t seed)
{
    SweepRequest request;
    std::uint32_t k = 0;
    for (const std::uint32_t cores : {16u, 64u}) {
        for (const std::uint32_t chips : {1u, 2u, 4u}) {
            const ConfigKind kind = kKinds[k % 4];
            const bool wireless = kind == ConfigKind::WiSyncNoT ||
                                  kind == ConfigKind::WiSync;
            request.points.push_back(point(kind, cores, chips,
                                           wireless && chips != 2,
                                           k % 2 == 1, seed + k));
            ++k;
        }
    }
    return request;
}

/** A batch that aborts mid-run on both shapes — a deadline, a thrown
 *  body and a run-limit stop — each followed by clean points of the
 *  same shape, so the pool ends the batch holding both shapes. */
SweepRequest
faultBatch()
{
    SweepRequest request;
    RequestPoint deadline = point(ConfigKind::WiSync, 64, 2, true,
                                  false, 7);
    deadline.workload.tightLoop.iterations = 100000;
    deadline.workload.maxCycles = 400;
    request.points.push_back(deadline); // 0: DeadlineExceeded
    request.points.push_back(
        point(ConfigKind::Baseline, 16, 1, false, true, 8)); // 1: throws
    RequestPoint stopped = point(ConfigKind::BaselinePlus, 16, 4, false,
                                 false, 9);
    stopped.workload.tightLoop.iterations = 100000;
    stopped.workload.tightLoop.runLimit = 500;
    request.points.push_back(stopped); // 2: completed=false, live roots
    for (const auto &p : mixedBatch(40).points)
        request.points.push_back(p);
    return request;
}

/** The answer of a cold, uncached, serial service to @p request. */
std::vector<ServiceOutcome>
coldReference(const SweepRequest &request, const FaultPlan *faults)
{
    SweepService cold(0);
    if (faults != nullptr)
        faults->arm(cold);
    return cold.runBatch(request, 1);
}

void
expectIdentical(const std::vector<ServiceOutcome> &expect,
                const std::vector<ServiceOutcome> &got)
{
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].ok, got[i].ok) << "point " << i;
        EXPECT_EQ(expect[i].error, got[i].error) << "point " << i;
        EXPECT_TRUE(bitIdentical(expect[i].result, got[i].result))
            << "point " << i;
    }
}

/** Every simulated point was served by exactly one build or reset. */
void
expectPoolBooks(const BatchStats &stats)
{
    EXPECT_EQ(stats.builds + stats.resets, stats.simulated);
    if (!SweepHarness::reuseEnabled()) {
        EXPECT_EQ(stats.builds, stats.simulated)
            << "WISYNC_NO_REUSE=1 builds every point";
        EXPECT_EQ(stats.resets, 0u);
    }
}

void
expectPoolBounded(const SweepService &svc, unsigned threads)
{
    EXPECT_LE(svc.machinePool().size(), threads);
    for (const SweepHarness &slot : svc.machinePool()) {
        EXPECT_LE(slot.size(), SweepHarness::capacity());
        EXPECT_LE(slot.size(), 2u) << "two shapes in every batch";
    }
}

TEST(ServiceWarmPool, BatchSequenceMatchesColdSerialReference)
{
    FaultPlan faults;
    faults.throwPoints = {1};
    const SweepRequest first = mixedBatch(1);
    const SweepRequest faulted = faultBatch();
    const SweepRequest second = mixedBatch(100);
    const auto expectFirst = coldReference(first, nullptr);
    const auto expectFaulted = coldReference(faulted, &faults);
    const auto expectSecond = coldReference(second, nullptr);
    ASSERT_FALSE(expectFaulted[0].ok);
    ASSERT_FALSE(expectFaulted[1].ok);
    ASSERT_TRUE(expectFaulted[2].ok);
    ASSERT_FALSE(expectFaulted[2].result.completed);

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        // Uncached, so every batch simulates every point on the pool.
        SweepService svc(0);
        expectIdentical(expectFirst, svc.runBatch(first, threads));
        expectPoolBooks(svc.lastBatch());
        EXPECT_GE(svc.lastBatch().builds, 2u) << "a cold pool builds";

        faults.arm(svc);
        expectIdentical(expectFaulted, svc.runBatch(faulted, threads));
        expectPoolBooks(svc.lastBatch());
        EXPECT_EQ(svc.lastBatch().errors, 2u);
        svc.setBodyProbe({});

        expectIdentical(expectSecond, svc.runBatch(second, threads));
        expectPoolBooks(svc.lastBatch());

        expectIdentical(expectFirst, svc.runBatch(first, threads));
        expectPoolBooks(svc.lastBatch());
        expectPoolBounded(svc, threads);
        if (threads == 1 && SweepHarness::reuseEnabled()) {
            // One slot that ended every batch holding both shapes.
            EXPECT_EQ(svc.lastBatch().builds, 0u);
            EXPECT_EQ(svc.lastBatch().resets, first.points.size());
        }
    }
}

TEST(ServiceWarmPool, RepeatedBatchBuildsNothing)
{
    const SweepRequest request = mixedBatch(5);
    const auto expect = coldReference(request, nullptr);
    SweepService svc(0);
    expectIdentical(expect, svc.runBatch(request, 1));
    if (SweepHarness::reuseEnabled()) {
        EXPECT_EQ(svc.lastBatch().builds, 2u) << "one per shape";
    }
    for (int round = 0; round < 3; ++round) {
        expectIdentical(expect, svc.runBatch(request, 1));
        expectPoolBooks(svc.lastBatch());
        if (SweepHarness::reuseEnabled()) {
            EXPECT_EQ(svc.lastBatch().builds, 0u) << "round " << round;
        }
    }
}

/**
 * A machine whose run stopped with live coroutine roots is reset on
 * the worker that ran it, and one whose body threw is destroyed: the
 * lent pool never holds a frame when execute returns. Checked at one
 * thread, where the calling thread's frame pool is the worker's.
 */
TEST(ServiceWarmPoolQuiesce, LentPoolHoldsNoFramesAfterARun)
{
    const std::uint64_t before = wisync::coro::framePool().liveFrames();
    std::vector<SweepHarness> pool;
    ParallelSweep sweep;
    sweep.add(MachineConfig::make(ConfigKind::WiSync, 16),
              [](Machine &m) {
                  wisync::workloads::TightLoopParams stop;
                  stop.iterations = 100000;
                  stop.runLimit = 300;
                  return wisync::workloads::runTightLoopOn(m, stop);
              });
    sweep.add(MachineConfig::make(ConfigKind::Baseline, 64),
              [](Machine &m) -> KernelResult {
                  m.engine().setDeadline(200);
                  wisync::workloads::TightLoopParams params;
                  params.iterations = 100000;
                  wisync::workloads::runTightLoopOn(m, params);
                  m.engine().clearDeadline();
                  throw std::runtime_error("stopped mid-run");
              });
    // Completed runs on another shape: the pool keeps these machines.
    sweep.add(MachineConfig::make(ConfigKind::WiSyncNoT, 32),
              [](Machine &m) {
                  wisync::workloads::TightLoopParams params;
                  params.iterations = 2;
                  return wisync::workloads::runTightLoopOn(m, params);
              });
    sweep.add(MachineConfig::make(ConfigKind::WiSync, 32), [](Machine &m) {
        wisync::workloads::CasKernelParams params;
        params.duration = 2000;
        return wisync::workloads::runCasKernelOn(
            wisync::workloads::CasKernel::Fifo, m, params);
    });
    const auto outcomes = sweep.runCaptured(1, pool);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].result.completed);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].error, "stopped mid-run");
    EXPECT_TRUE(outcomes[2].ok && outcomes[3].ok);

    ASSERT_EQ(pool.size(), 1u);
    if (SweepHarness::reuseEnabled()) {
        EXPECT_EQ(pool[0].builds(), 3u);
        EXPECT_EQ(pool[0].size(), 2u)
            << "the machine whose body threw is gone";
    }
    EXPECT_EQ(wisync::coro::framePool().liveFrames(), before)
        << "no machine left in the pool holds a coroutine frame";
}

/**
 * Every point stops at its run limit with threads parked, on whichever
 * worker ran it; those workers' threads end with the batch. The next
 * batch resets the same machines on new threads — only safe because
 * each worker reset its stopped machines before its thread ended (an
 * ASan build reports the frames otherwise).
 */
TEST(ServiceWarmPool, StoppedMachinesMoveToNewWorkerThreads)
{
    SweepRequest request;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RequestPoint p = point(ConfigKind::WiSync, 16, 1, false, false,
                               seed);
        p.workload.tightLoop.iterations = 100000;
        p.workload.tightLoop.runLimit = 400 + 50 * seed;
        request.points.push_back(p);
    }
    const auto expect = coldReference(request, nullptr);
    SweepService svc(0);
    for (int round = 0; round < 3; ++round) {
        const auto got = svc.runBatch(request, 4);
        expectIdentical(expect, got);
        for (const auto &o : got)
            EXPECT_FALSE(o.result.completed);
        expectPoolBooks(svc.lastBatch());
    }
}

TEST(ServiceWarmPool, DaemonReportsPoolTelemetryOutsideStats)
{
    wisync::service::DaemonOptions opt;
    opt.threads = 1;
    wisync::service::Daemon daemon(opt);
    const std::string line1 = R"({"points":[
        {"config":{"kind":"WiSync","cores":16},
         "workload":{"kind":"tightloop","iterations":3}},
        {"config":{"kind":"Baseline","cores":16},
         "workload":{"kind":"tightloop","iterations":3}}]})";
    const std::string line2 = R"({"points":[
        {"config":{"kind":"WiSyncNoT","cores":16},
         "workload":{"kind":"tightloop","iterations":3}}]})";

    auto telemetry = [&](const std::string &line) {
        bool ok = false;
        const auto doc =
            wisync::service::Json::parse(daemon.handleRequest(line, &ok));
        EXPECT_TRUE(ok);
        const auto *stats = doc.find("stats");
        EXPECT_TRUE(stats != nullptr && stats->find("builds") == nullptr)
            << "host telemetry stays out of the deterministic stats";
        const auto *t = doc.find("telemetry");
        EXPECT_NE(t, nullptr);
        EXPECT_GE(t->find("hostMs")->number(), 0.0);
        return std::pair{std::stoull(t->find("builds")->rawNumber()),
                         std::stoull(t->find("resets")->rawNumber())};
    };
    const auto [builds1, resets1] = telemetry(line1);
    EXPECT_EQ(builds1 + resets1, 2u);
    const auto [builds2, resets2] = telemetry(line2);
    EXPECT_EQ(builds2 + resets2, 1u);
    if (SweepHarness::reuseEnabled()) {
        EXPECT_EQ(builds1, 1u) << "kind is not part of machine shape";
        EXPECT_EQ(builds2, 0u) << "the next line resets the warm machine";
    }
    // A fully cached line simulates, builds and resets nothing.
    const auto [builds3, resets3] = telemetry(line2);
    EXPECT_EQ(builds3 + resets3, 0u);
}

} // namespace
