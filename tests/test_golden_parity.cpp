/** @file Golden parity tests for the control-plane/data-plane split.
 *
 *  The constants below were captured from the pre-refactor build (the
 *  seed of this PR): total kernel cycles, total instructions, and the
 *  per-launch SampleLevel sequence for example workloads on the tiny
 *  and R9-Nano GPU models. The refactor moved the switch logic into
 *  SamplingController/SwitchGovernor and added telemetry capture, but
 *  none of that may perturb a single simulated cycle — every case must
 *  reproduce bit-identically. Full-mode runs take the hook-free issue
 *  and replay their launch trace; photon-mode runs capture each
 *  workgroup at dispatch and take the hooked issue until the
 *  controller releases its hooks (at the switch, or once the last
 *  workgroup is placed), then the hook-free one. */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver/platform.hpp"
#include "service/campaign.hpp"
#include "workloads/workload.hpp"

using namespace photon;
using L = sampling::SampleLevel;

namespace {

struct GoldenCase {
    const char *workload;
    std::uint32_t size;
    const char *gpu;
    driver::SimMode mode;
    bool warpSampling; // SamplingConfig ablation (photon mode only)
    Cycle cycles;
    std::uint64_t insts;
    std::vector<L> levels;
};

void
runCase(const GoldenCase &c)
{
    SamplingConfig cfg;
    cfg.enableWarpSampling = c.warpSampling;
    GpuConfig gpu;
    std::string err;
    ASSERT_TRUE(service::parseGpuName(c.gpu, gpu, &err)) << err;
    driver::Platform p(gpu, c.mode, cfg);
    auto w = service::makeWorkload(c.workload, c.size, &err);
    ASSERT_NE(w, nullptr) << err;
    w->setup(p);
    workloads::runWorkload(*w, p);

    EXPECT_EQ(p.totalKernelCycles(), c.cycles)
        << c.workload << "/" << c.size << " on " << c.gpu;
    EXPECT_EQ(p.totalInsts(), c.insts)
        << c.workload << "/" << c.size << " on " << c.gpu;
    ASSERT_EQ(p.launchLog().size(), c.levels.size());
    for (std::size_t i = 0; i < c.levels.size(); ++i)
        EXPECT_EQ(p.launchLog()[i].sample.level, c.levels[i])
            << c.workload << " launch " << i;

    // A switch label must come from a switch that skipped warps: the
    // controller lets go once the last workgroup is placed, so no stop
    // can fire after the last dispatch.
    for (const driver::LaunchResult &l : p.launchLog()) {
        const sampling::KernelTelemetry &t = l.sample.telemetry;
        if (t.level == L::Warp || t.level == L::BasicBlock) {
            EXPECT_LT(t.detailedWarps, t.totalWarps)
                << c.workload << "/" << c.size << " on " << c.gpu;
        }
    }
}

/** Pagerank issues 16 launches (2 kernels x 8 iterations); with the
 *  kernel cache warm after the first iteration, launches 3.. hit it. */
std::vector<L>
pagerankPhotonLevels()
{
    std::vector<L> v(16, L::Kernel);
    v[0] = L::Full;
    v[1] = L::Full;
    return v;
}

/** Every example workload on the tiny GPU, detailed and photon. All
 *  kernels are below the engagement thresholds, so photon must fall
 *  back to Full and reproduce the detailed numbers exactly. */
const std::vector<GoldenCase> &
tinyMatrix()
{
    static const std::vector<GoldenCase> kCases = {
        {"relu", 64, "tiny", driver::SimMode::FullDetailed, true, 881ull,
         960ull, {L::Full}},
        {"fir", 64, "tiny", driver::SimMode::FullDetailed, true, 4144ull,
         10240ull, {L::Full}},
        {"sc", 64, "tiny", driver::SimMode::FullDetailed, true, 3293ull,
         4312ull, {L::Full}},
        {"mm", 64, "tiny", driver::SimMode::FullDetailed, true, 15663ull,
         37696ull, {L::Full}},
        {"mmtiled", 64, "tiny", driver::SimMode::FullDetailed, true,
         8993ull, 30720ull, {L::Full}},
        {"aes", 32, "tiny", driver::SimMode::FullDetailed, true, 10719ull,
         13728ull, {L::Full}},
        {"spmv", 64, "tiny", driver::SimMode::FullDetailed, true,
         727793ull, 56178ull, {L::Full}},
        {"pagerank", 64, "tiny", driver::SimMode::FullDetailed, true,
         62159ull, 9568ull, std::vector<L>(16, L::Full)},
        {"relu", 64, "tiny", driver::SimMode::Photon, true, 881ull, 960ull,
         {L::Full}},
        {"fir", 64, "tiny", driver::SimMode::Photon, true, 4144ull,
         10240ull, {L::Full}},
        {"sc", 64, "tiny", driver::SimMode::Photon, true, 3293ull, 4312ull,
         {L::Full}},
        {"mm", 64, "tiny", driver::SimMode::Photon, true, 15663ull,
         37696ull, {L::Full}},
        {"mmtiled", 64, "tiny", driver::SimMode::Photon, true, 8993ull,
         30720ull, {L::Full}},
        {"aes", 32, "tiny", driver::SimMode::Photon, true, 10719ull,
         13728ull, {L::Full}},
        {"spmv", 64, "tiny", driver::SimMode::Photon, true, 727793ull,
         56178ull, {L::Full}},
        {"pagerank", 64, "tiny", driver::SimMode::Photon, true, 77040ull,
         9568ull, pagerankPhotonLevels()},
    };
    return kCases;
}

/** R9-Nano cases exercising the actual switch paths (warp, basic
 *  block, kernel cache) and the no-warp-sampling ablation. */
const std::vector<GoldenCase> &
nanoMatrix()
{
    static const std::vector<GoldenCase> kCases = {
        {"relu", 16384, "r9nano", driver::SimMode::Photon, true, 31408ull,
         245760ull, {L::Warp}},
        {"relu", 16384, "r9nano", driver::SimMode::Photon, false, 31461ull,
         245760ull, {L::Full}},
        {"sc", 16384, "r9nano", driver::SimMode::Photon, true, 112303ull,
         1195852ull, {L::Warp}},
        {"sc", 16384, "r9nano", driver::SimMode::Photon, false, 108732ull,
         1195672ull, {L::Full}},
        {"fir", 32768, "r9nano", driver::SimMode::Photon, true, 208957ull,
         5242880ull, {L::BasicBlock}},
        {"pagerank", 16384, "r9nano", driver::SimMode::Photon, true,
         207480ull, 640384ull, pagerankPhotonLevels()},
    };
    return kCases;
}

} // namespace

TEST(GoldenParity, TinyMatrixSerial)
{
    for (const auto &c : tinyMatrix())
        runCase(c);
}

TEST(GoldenParity, NanoSwitchPathsSerial)
{
    for (const auto &c : nanoMatrix())
        runCase(c);
}

namespace {

/** A full-detail run pinned down to every exported memory counter,
 *  captured from the timestamp-LRU cache model the move-to-front tag
 *  lists replaced. mi100 has 32 L2 banks and 32 DRAM banks (r9nano 8
 *  and 16, tiny 2 and 4), so its cases cover the widest bank
 *  interleave and the largest cache state.
 *
 *  The occupancy integrals (gpu.now_cycles, gpu.active_cycles,
 *  gpu.busy_cu_cycles, gpu.wave_cycles) are pinned as absolute values
 *  too: a test that only compares two runs with each other cannot see
 *  an accumulator both runs start from the same garbage. */
struct FullDetailCase {
    const char *workload;
    std::uint32_t size;
    const char *gpu;
    Cycle cycles;
    std::uint64_t insts;
    std::vector<std::pair<const char *, double>> mem;
    std::vector<std::pair<const char *, double>> occupancy;
};

void
runFullDetailCase(const FullDetailCase &c)
{
    GpuConfig gpu;
    std::string err;
    ASSERT_TRUE(service::parseGpuName(c.gpu, gpu, &err)) << err;
    driver::Platform p(gpu, driver::SimMode::FullDetailed, SamplingConfig{});
    auto w = service::makeWorkload(c.workload, c.size, &err);
    ASSERT_NE(w, nullptr) << err;
    w->setup(p);
    workloads::runWorkload(*w, p);

    EXPECT_EQ(p.totalKernelCycles(), c.cycles) << c.workload;
    EXPECT_EQ(p.totalInsts(), c.insts) << c.workload;
    StatRegistry stats = p.stats();
    std::size_t exported = 0;
    for (const auto &[name, value] : stats.values())
        exported += name.rfind("mem.", 0) == 0;
    EXPECT_EQ(exported, c.mem.size()) << c.workload;
    for (const auto &[name, value] : c.mem)
        EXPECT_EQ(stats.get(name), value) << c.workload << " " << name;
    for (const auto &[name, value] : c.occupancy)
        EXPECT_EQ(stats.get(name), value) << c.workload << " " << name;
}

} // namespace

TEST(GoldenParity, Mi100FullDetailMemoryStats)
{
    const FullDetailCase kCases[] = {
        {"spmv", 512, "mi100", 540075ull, 453316ull,
         {{"mem.dram.accesses", 1036348},
          {"mem.dram.queueing_cycles", 15105164},
          {"mem.l1i.hits", 65414},
          {"mem.l1i.misses", 150},
          {"mem.l1k.hits", 3042},
          {"mem.l1k.misses", 30},
          {"mem.l1v.hits", 566580},
          {"mem.l1v.misses", 1388805},
          {"mem.l2.hits", 352637},
          {"mem.l2.misses", 1036348}},
         {{"gpu.now_cycles", 540075},
          {"gpu.active_cycles", 540074},
          {"gpu.busy_cu_cycles", 64108803},
          {"gpu.wave_cycles", 272405369}}},
        {"mm", 128, "mi100", 18085ull, 298240ull,
         {{"mem.dram.accesses", 3076},
          {"mem.dram.queueing_cycles", 3028},
          {"mem.l1i.hits", 65744},
          {"mem.l1i.misses", 48},
          {"mem.l1k.hits", 752},
          {"mem.l1k.misses", 16},
          {"mem.l1v.hits", 97280},
          {"mem.l1v.misses", 67584},
          {"mem.l2.hits", 64572},
          {"mem.l2.misses", 3076}},
         {{"gpu.now_cycles", 18085},
          {"gpu.active_cycles", 18084},
          {"gpu.busy_cu_cycles", 1146572},
          {"gpu.wave_cycles", 4564162}}},
    };
    for (const FullDetailCase &c : kCases)
        runFullDetailCase(c);
}

TEST(GoldenParity, NanoFullDetailMemoryStats)
{
    const FullDetailCase kCases[] = {
        {"fir", 4096, "r9nano", 47731ull, 655360ull,
         {{"mem.dram.accesses", 159996},
          {"mem.dram.queueing_cycles", 49906165},
          {"mem.l1i.hits", 139200},
          {"mem.l1i.misses", 64},
          {"mem.l1k.hits", 85984},
          {"mem.l1k.misses", 32},
          {"mem.l1v.hits", 168794},
          {"mem.l1v.misses", 171174},
          {"mem.l2.hits", 11274},
          {"mem.l2.misses", 159996}},
         {{"gpu.now_cycles", 47731},
          {"gpu.active_cycles", 47730},
          {"gpu.busy_cu_cycles", 2901520},
          {"gpu.wave_cycles", 81414041}}},
    };
    for (const FullDetailCase &c : kCases)
        runFullDetailCase(c);
}
