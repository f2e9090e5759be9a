/**
 * @file
 * Workload tests: functional correctness against serial references
 * and cross-configuration performance sanity (who should win, wins).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hh"
#include "workloads/apps.hh"
#include "workloads/cas_kernels.hh"
#include "workloads/livermore.hh"
#include "workloads/tight_loop.hh"

namespace {

using wisync::core::ConfigKind;
using wisync::workloads::appByName;
using wisync::workloads::appSuite;
using wisync::workloads::CasKernel;
using wisync::workloads::CasKernelParams;
using wisync::workloads::iccgReference;
using wisync::workloads::innerProductReference;
using wisync::workloads::linearRecurrenceReference;
using wisync::workloads::LivermoreLoop;
using wisync::workloads::LivermoreParams;
using wisync::workloads::livermoreInput;
using wisync::workloads::runCasKernel;
using wisync::workloads::runLivermore;
using wisync::workloads::runLivermoreVerified;
using wisync::workloads::runTightLoop;
using wisync::workloads::TightLoopParams;

TEST(TightLoop, CompletesOnAllConfigs)
{
    TightLoopParams params;
    params.iterations = 5;
    for (const auto kind :
         {ConfigKind::Baseline, ConfigKind::BaselinePlus,
          ConfigKind::WiSyncNoT, ConfigKind::WiSync}) {
        const auto r = runTightLoop(kind, 16, params);
        EXPECT_TRUE(r.completed);
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(TightLoop, ArraysPastTwoToTheTwentyNineElementsDoNotOverlap)
{
    // Each thread's array is arrayElems * 8 bytes. Formed in 32 bits,
    // 2^29 + 1 elements would wrap to 8 bytes and every thread's array
    // would overlap the next. The run is cut short; only the layout
    // matters.
    wisync::core::Machine m(
        wisync::core::MachineConfig::make(ConfigKind::WiSync, 16));
    TightLoopParams p;
    p.iterations = 1;
    p.arrayElems = (1u << 29) + 1;
    p.runLimit = 200;
    (void)wisync::workloads::runTightLoopOn(m, p);
    EXPECT_GE(m.allocMem(8), 16 * (std::uint64_t{p.arrayElems} * 8));
}

TEST(TightLoop, WiSyncBeatsBaselineAndBaselinePlus)
{
    TightLoopParams params;
    params.iterations = 10;
    const auto base = runTightLoop(ConfigKind::Baseline, 32, params);
    const auto plus = runTightLoop(ConfigKind::BaselinePlus, 32, params);
    const auto not_ = runTightLoop(ConfigKind::WiSyncNoT, 32, params);
    const auto full = runTightLoop(ConfigKind::WiSync, 32, params);
    // Paper Fig. 7 ordering: WiSync < WiSyncNoT < Baseline+ < Baseline.
    EXPECT_LT(full.cycles, not_.cycles);
    EXPECT_LT(not_.cycles, plus.cycles);
    EXPECT_LT(plus.cycles, base.cycles);
    // And the gap to Baseline is large (orders of magnitude at scale).
    EXPECT_LT(full.cycles * 5, base.cycles);
}

TEST(TightLoop, WiSyncIterationCostIsTensOfCycles)
{
    TightLoopParams params;
    params.iterations = 20;
    const auto r = runTightLoop(ConfigKind::WiSync, 64, params);
    // ~50 loads (2 cyc) + adds + tone barrier: well under 1000
    // cycles/iteration (Fig. 7 shows ~2-3x10^2 at 64 cores).
    EXPECT_LT(r.cycles / r.operations, 1000u);
    EXPECT_GT(r.cycles / r.operations, 50u);
}

TEST(Livermore, InputsAreDeterministic)
{
    EXPECT_EQ(livermoreInput(0, 5), livermoreInput(0, 5));
    EXPECT_NE(livermoreInput(0, 5), livermoreInput(1, 5));
}

class LivermoreVerify
    : public ::testing::TestWithParam<std::tuple<ConfigKind, int>>
{};

INSTANTIATE_TEST_SUITE_P(
    Sweep, LivermoreVerify,
    ::testing::Combine(::testing::Values(ConfigKind::Baseline,
                                         ConfigKind::WiSync),
                       ::testing::Values(16, 64)));

TEST_P(LivermoreVerify, IccgMatchesSerialReference)
{
    const auto [kind, n] = GetParam();
    LivermoreParams params;
    params.n = static_cast<std::uint32_t>(n);
    params.passes = 1;
    const auto out =
        runLivermoreVerified(LivermoreLoop::Iccg, kind, 8, params);
    ASSERT_TRUE(out.result.completed);

    std::vector<std::uint64_t> x, v;
    for (std::uint32_t i = 0;
         i < wisync::workloads::iccgArraySize(params.n); ++i) {
        x.push_back(livermoreInput(0, i));
        v.push_back(livermoreInput(1, i));
    }
    const auto expect = iccgReference(x, v, params.n);
    ASSERT_EQ(out.values.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(out.values[i], expect[i]) << "x[" << i << "]";
}

TEST_P(LivermoreVerify, InnerProductMatchesSerialReference)
{
    const auto [kind, n] = GetParam();
    LivermoreParams params;
    params.n = static_cast<std::uint32_t>(n);
    params.passes = 2;
    const auto out = runLivermoreVerified(LivermoreLoop::InnerProduct,
                                          kind, 8, params);
    ASSERT_TRUE(out.result.completed);

    std::vector<std::uint64_t> z, x;
    for (std::uint32_t i = 0; i < params.n; ++i) {
        z.push_back(livermoreInput(0, i));
        x.push_back(livermoreInput(1, i));
    }
    ASSERT_EQ(out.values.size(), 1u);
    EXPECT_EQ(out.values[0], innerProductReference(z, x));
}

TEST_P(LivermoreVerify, LinearRecurrenceMatchesSerialReference)
{
    const auto [kind, n] = GetParam();
    LivermoreParams params;
    params.n = static_cast<std::uint32_t>(n);
    params.passes = 1;
    const auto out = runLivermoreVerified(LivermoreLoop::LinearRecurrence,
                                          kind, 8, params);
    ASSERT_TRUE(out.result.completed);

    std::vector<std::uint64_t> w, b;
    for (std::uint32_t i = 0; i < params.n; ++i)
        w.push_back(livermoreInput(0, i));
    b.resize(static_cast<std::size_t>(params.n) * params.n);
    for (std::uint32_t i = 0; i < params.n; ++i)
        for (std::uint32_t k = 0; k < params.n; ++k)
            b[static_cast<std::size_t>(i) * params.n + k] =
                livermoreInput(2, i * params.n + k);
    const auto expect = linearRecurrenceReference(w, b, params.n);
    ASSERT_EQ(out.values.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(out.values[i], expect[i]) << "w[" << i << "]";
}

TEST(Livermore, WiSyncWinsAtSmallVectors)
{
    // Fig. 8: gains are highest with small vector lengths where the
    // barrier dominates.
    LivermoreParams params;
    params.n = 64;
    const auto base =
        runLivermore(LivermoreLoop::Iccg, ConfigKind::Baseline, 16,
                     params);
    const auto full =
        runLivermore(LivermoreLoop::Iccg, ConfigKind::WiSync, 16, params);
    EXPECT_LT(full.cycles * 2, base.cycles);
}

TEST(CasKernels, AllKernelsProduceSuccessesOnBothConfigs)
{
    CasKernelParams params;
    params.criticalSectionInstr = 256;
    params.duration = 50'000;
    for (const auto kernel :
         {CasKernel::Add, CasKernel::Lifo, CasKernel::Fifo}) {
        for (const auto kind : {ConfigKind::Baseline, ConfigKind::WiSync}) {
            const auto r = runCasKernel(kernel, kind, 16, params);
            EXPECT_TRUE(r.completed);
            EXPECT_GT(r.operations, 0u)
                << "kernel " << static_cast<int>(kernel) << " kind "
                << static_cast<int>(kind);
        }
    }
}

TEST(CasKernels, WiSyncThroughputHigherUnderContention)
{
    // Fig. 9: with small critical sections, WiSync sustains much
    // higher CAS throughput than Baseline.
    CasKernelParams params;
    params.criticalSectionInstr = 64;
    params.duration = 100'000;
    const auto base =
        runCasKernel(CasKernel::Add, ConfigKind::Baseline, 32, params);
    const auto wis =
        runCasKernel(CasKernel::Add, ConfigKind::WiSync, 32, params);
    EXPECT_GT(wis.operations, base.operations * 2);
}

TEST(CasKernels, ConfigsConvergeWithHugeCriticalSections)
{
    // Fig. 9: at 8-16K+ instructions between CASes, there is little
    // or no difference between the architectures.
    CasKernelParams params;
    params.criticalSectionInstr = 16384;
    params.duration = 400'000;
    const auto base =
        runCasKernel(CasKernel::Add, ConfigKind::Baseline, 16, params);
    const auto wis =
        runCasKernel(CasKernel::Add, ConfigKind::WiSync, 16, params);
    ASSERT_GT(base.operations, 0u);
    const double ratio = static_cast<double>(wis.operations) /
                         static_cast<double>(base.operations);
    EXPECT_GT(ratio, 0.8);
    EXPECT_LT(ratio, 1.6);
}

TEST(Apps, SuiteHas26Applications)
{
    EXPECT_EQ(appSuite().size(), 26u);
    int parsec = 0, splash = 0;
    for (const auto &app : appSuite()) {
        if (app.suite == "PARSEC")
            ++parsec;
        else if (app.suite == "SPLASH-2")
            ++splash;
    }
    EXPECT_EQ(parsec, 12);
    EXPECT_EQ(splash, 14);
}

TEST(Apps, LookupByNameWorks)
{
    EXPECT_EQ(appByName("streamcluster").name, "streamcluster");
    EXPECT_GT(appByName("dedup").numLocks, 2048u)
        << "dedup must overflow the 16KB BM";
    EXPECT_GT(appByName("fluidanimate").numLocks, 2048u);
}

TEST(Apps, BarrierHeavyAppSpeedsUpOnWiSync)
{
    const auto &app = appByName("streamcluster");
    const auto base = runApp(app, ConfigKind::Baseline, 16);
    const auto wis = runApp(app, ConfigKind::WiSync, 16);
    ASSERT_TRUE(base.completed);
    ASSERT_TRUE(wis.completed);
    EXPECT_LT(wis.cycles, base.cycles);
}

TEST(Apps, SyncLightAppIsUnaffected)
{
    const auto &app = appByName("blackscholes");
    const auto base = runApp(app, ConfigKind::Baseline, 16);
    const auto wis = runApp(app, ConfigKind::WiSync, 16);
    const double speedup = static_cast<double>(base.cycles) /
                           static_cast<double>(wis.cycles);
    EXPECT_GT(speedup, 0.95);
    EXPECT_LT(speedup, 1.1);
}

TEST(Apps, OverflowingLockArrayStillRuns)
{
    // dedup: 3000 locks > 2048 BM words -> mixed BM/memory locks.
    const auto &app = appByName("dedup");
    const auto wis = runApp(app, ConfigKind::WiSync, 16);
    EXPECT_TRUE(wis.completed);
}

} // namespace
