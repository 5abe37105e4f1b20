/** @file End-to-end tests of the Photon orchestrator and PKA baseline. */

#include <gtest/gtest.h>

#include "driver/platform.hpp"
#include "workloads/workload.hpp"

using namespace photon;

namespace {

Cycle
fullCycles(const workloads::WorkloadPtr &w)
{
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::FullDetailed);
    w->setup(p);
    workloads::runWorkload(*w, p);
    return p.totalKernelCycles();
}

} // namespace

TEST(Photon, FullFallbackMatchesDetailedExactly)
{
    // A kernel too small for any level to engage must reproduce the
    // detailed result bit-for-bit.
    Cycle full = fullCycles(workloads::makeRelu(256));
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon);
    auto w = workloads::makeRelu(256);
    w->setup(p);
    auto rs = workloads::runWorkload(*w, p);
    EXPECT_EQ(rs[0].sample.level, sampling::SampleLevel::Full);
    EXPECT_EQ(p.totalKernelCycles(), full);
}

TEST(Photon, WarpSamplingEngagesAndStaysAccurate)
{
    Cycle full = fullCycles(workloads::makeRelu(16384));
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon);
    auto w = workloads::makeRelu(16384);
    w->setup(p);
    auto rs = workloads::runWorkload(*w, p);
    EXPECT_EQ(rs[0].sample.level, sampling::SampleLevel::Warp);
    EXPECT_LT(rs[0].sample.telemetry.detailedFraction(), 0.8);
    // The control plane filled the decision half of the record.
    EXPECT_EQ(rs[0].sample.telemetry.level, sampling::SampleLevel::Warp);
    EXPECT_GT(rs[0].sample.telemetry.switchCycle, 0u);
    EXPECT_TRUE(rs[0].sample.telemetry.warpDetector.stable);
    double err = std::abs(static_cast<double>(p.totalKernelCycles()) -
                          static_cast<double>(full)) /
                 static_cast<double>(full);
    EXPECT_LT(err, 0.10);
}

TEST(Photon, KernelSamplingSkipsRepeatedLaunches)
{
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon);
    auto w = workloads::makePagerank(16384, 4);
    w->setup(p);
    auto rs = workloads::runWorkload(*w, p);
    // Iterations beyond the first must hit the kernel cache.
    int kernel_hits = 0;
    for (const auto &r : rs)
        kernel_hits += r.sample.level == sampling::SampleLevel::Kernel;
    EXPECT_GE(kernel_hits, 4);
    EXPECT_GE(p.photon()->cache().size(), 2u);
}

TEST(Photon, LevelDisablingIsRespected)
{
    SamplingConfig cfg;
    cfg.enableKernelSampling = false;
    cfg.enableWarpSampling = false;
    cfg.enableBbSampling = false;
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon, cfg);
    auto w = workloads::makePagerank(16384, 3);
    w->setup(p);
    auto rs = workloads::runWorkload(*w, p);
    for (const auto &r : rs)
        EXPECT_EQ(r.sample.level, sampling::SampleLevel::Full);
    // With neither in-kernel level attached nothing can fire, so the
    // controller lets go of its hooks at the first dispatch.
    for (const auto &r : rs) {
        EXPECT_EQ(r.sample.telemetry.noSwitchReason, "levels_disabled");
        EXPECT_NE(r.sample.telemetry.hooksReleasedCycle, kNoCycle);
    }
}

TEST(Photon, ReleasesHooksWhenNothingCanBeSkipped)
{
    // mm 256 (1,024 warps) and spmv 512 rows x 64 (512 warps) fit in
    // r9nano's 2,048 effective wave slots, so every workgroup is placed
    // at the first cycle. Photon predicts only never-dispatched warps,
    // so no switch can pay: the controller releases its hooks right
    // there and the run must reproduce full detail exactly.
    const struct
    {
        const char *name;
        workloads::WorkloadPtr (*make)();
    } cases[] = {
        {"mm 256", [] { return workloads::makeMm(256); }},
        {"spmv 512x64", [] { return workloads::makeSpmv(512 * 64, 64, 1); }},
    };
    for (const auto &c : cases) {
        driver::Platform full(GpuConfig::r9Nano(),
                              driver::SimMode::FullDetailed);
        auto wf = c.make();
        wf->setup(full);
        workloads::runWorkload(*wf, full);

        driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon);
        auto w = c.make();
        w->setup(p);
        auto rs = workloads::runWorkload(*w, p);
        EXPECT_EQ(p.totalKernelCycles(), full.totalKernelCycles())
            << c.name;
        EXPECT_EQ(p.totalInsts(), full.totalInsts()) << c.name;
        ASSERT_FALSE(rs.empty()) << c.name;
        for (const auto &r : rs) {
            const sampling::KernelTelemetry &t = r.sample.telemetry;
            EXPECT_EQ(r.sample.level, sampling::SampleLevel::Full)
                << c.name;
            EXPECT_EQ(t.noSwitchReason, "all_dispatched") << c.name;
            EXPECT_NE(t.hooksReleasedCycle, kNoCycle) << c.name;
            EXPECT_EQ(t.detailedWarps, t.totalWarps) << c.name;
        }
    }
}

TEST(Photon, OfflineAnalysisReuseKeepsPredictions)
{
    auto factory = [] { return workloads::makeRelu(8192); };
    driver::Platform online(GpuConfig::r9Nano(), driver::SimMode::Photon);
    auto w1 = factory();
    w1->setup(online);
    workloads::runWorkload(*w1, online);

    driver::Platform offline(GpuConfig::r9Nano(),
                             driver::SimMode::Photon);
    offline.photon()->importAnalysisStore(
        online.photon()->analysisStore());
    auto w2 = factory();
    w2->setup(offline);
    auto rs = workloads::runWorkload(*w2, offline);
    EXPECT_EQ(rs[0].sample.telemetry.analysisInsts, 0u); // reused
    EXPECT_TRUE(rs[0].sample.telemetry.analysisReused);
    double rel = std::abs(static_cast<double>(
                              offline.totalKernelCycles()) -
                          static_cast<double>(online.totalKernelCycles())) /
                 static_cast<double>(online.totalKernelCycles());
    EXPECT_LT(rel, 0.05);
}

TEST(Photon, PredictedInstsTrackDetailedInsts)
{
    Cycle ignored = fullCycles(workloads::makeRelu(16384));
    (void)ignored;
    driver::Platform full(GpuConfig::r9Nano(),
                          driver::SimMode::FullDetailed);
    auto wf = workloads::makeRelu(16384);
    wf->setup(full);
    workloads::runWorkload(*wf, full);

    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon);
    auto w = workloads::makeRelu(16384);
    w->setup(p);
    workloads::runWorkload(*w, p);
    double rel = std::abs(static_cast<double>(p.totalInsts()) -
                          static_cast<double>(full.totalInsts())) /
                 static_cast<double>(full.totalInsts());
    EXPECT_LT(rel, 0.02);
}

TEST(Photon, WaitcntSplittingStillAccurate)
{
    // The future-work block definition must not break the pipeline.
    Cycle full = fullCycles(workloads::makeRelu(8192));
    SamplingConfig cfg;
    cfg.bbSplitAtWaitcnt = true;
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Photon, cfg);
    auto w = workloads::makeRelu(8192);
    w->setup(p);
    workloads::runWorkload(*w, p);
    double err = std::abs(static_cast<double>(p.totalKernelCycles()) -
                          static_cast<double>(full)) /
                 static_cast<double>(full);
    EXPECT_LT(err, 0.15);
}

TEST(Pka, RunsAndExtrapolates)
{
    Cycle full = fullCycles(workloads::makeRelu(16384));
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Pka);
    auto w = workloads::makeRelu(16384);
    w->setup(p);
    auto rs = workloads::runWorkload(*w, p);
    EXPECT_GT(p.totalKernelCycles(), 0u);
    // PKA truncates once IPC variance settles.
    EXPECT_NE(rs[0].sample.level, sampling::SampleLevel::Kernel);
    // Sanity bound: within a factor of 2 of the detailed result.
    EXPECT_LT(p.totalKernelCycles(), 2 * full);
    EXPECT_GT(p.totalKernelCycles(), full / 2);
}

TEST(Pka, PrincipalKernelSelectionReusesFirstInstance)
{
    driver::Platform p(GpuConfig::r9Nano(), driver::SimMode::Pka);
    auto w = workloads::makePagerank(16384, 3);
    w->setup(p);
    auto rs = workloads::runWorkload(*w, p);
    int reused = 0;
    for (const auto &r : rs)
        reused += r.sample.level == sampling::SampleLevel::Kernel;
    EXPECT_GE(reused, 4); // iterations 2..3, both kernels
}
