/** @file Integration tests for the CU/GPU timing model. */

#include <gtest/gtest.h>

#include <set>

#include "driver/platform.hpp"
#include "isa/basic_block.hpp"
#include "isa/builder.hpp"
#include "timing/cu.hpp"
#include "timing/gpu.hpp"
#include "timing/monitor.hpp"
#include "workloads/workload.hpp"

using namespace photon;
using namespace photon::isa;
using timing::Gpu;
using timing::KernelMonitor;
using timing::RunOutcome;

namespace {

ProgramPtr
countedAluKernel(std::uint32_t iters)
{
    KernelBuilder b("alu");
    b.sMov(3, imm(0));
    Label loop = b.label();
    b.bind(loop);
    b.vAddF32(1, vreg(1), immF(1.0f));
    b.sAdd(3, sreg(3), imm(1));
    b.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(iters));
    b.branch(Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    return b.finish();
}

ProgramPtr
barrierKernel()
{
    KernelBuilder b("barrier");
    b.setLdsBytes(256);
    // Wave writes its id to LDS, barrier, reads the other wave's slot.
    b.emit(Opcode::V_LSHL_B32, vreg(1), sreg(kSgprWaveInGroup), imm(2));
    b.dsWrite(1, sreg(kSgprWaveInGroup));
    b.barrier();
    b.emit(Opcode::S_XOR_B32, sreg(3), sreg(kSgprWaveInGroup), imm(1));
    b.emit(Opcode::V_LSHL_B32, vreg(2), sreg(3), imm(2));
    b.dsRead(3, 2);
    b.endProgram();
    return b.finish();
}

/** Records monitor callbacks for ordering checks. */
struct RecordingMonitor : KernelMonitor
{
    std::set<WarpId> dispatched, retired;
    std::uint64_t insts = 0, bbs = 0;
    bool ordered = true;

    void
    onWaveDispatched(WarpId w, Cycle) override
    {
        dispatched.insert(w);
    }
    void
    onWaveRetired(WarpId w, Cycle, std::uint64_t) override
    {
        if (!dispatched.count(w))
            ordered = false;
        retired.insert(w);
    }
    void
    onInstruction(WarpId, const func::StepResult &, Cycle issue,
                  Cycle complete) override
    {
        ++insts;
        if (complete < issue)
            ordered = false;
    }
    void
    onBbExecuted(WarpId, isa::BbId, Cycle issue, Cycle retire,
                 std::uint32_t lanes) override
    {
        ++bbs;
        if (retire < issue || lanes > 64)
            ordered = false;
    }
};

} // namespace

TEST(Gpu, RunsKernelToCompletion)
{
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = countedAluKernel(10);
    func::LaunchDims dims{8, 4, 0};
    RunOutcome out = gpu.runKernel(*prog, dims, mem);
    EXPECT_EQ(out.wavesCompleted, 32u);
    EXPECT_GT(out.cycles(), 0u);
    // 1 mov + 10 * 4 loop instructions + endpgm = 42 per wave.
    EXPECT_EQ(out.instsIssued, 42u * 32u);
    EXPECT_FALSE(out.stoppedEarly);
    EXPECT_EQ(out.firstUndispatchedWg, 8u);
}

TEST(Gpu, DeterministicCycleCounts)
{
    ProgramPtr prog = countedAluKernel(50);
    auto run_once = [&] {
        Gpu gpu(GpuConfig::testTiny());
        func::GlobalMemory mem(1 << 20);
        func::LaunchDims dims{16, 4, 0};
        return gpu.runKernel(*prog, dims, mem).cycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Gpu, ClockIsMonotonicAcrossKernels)
{
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = countedAluKernel(5);
    func::LaunchDims dims{4, 4, 0};
    RunOutcome a = gpu.runKernel(*prog, dims, mem);
    RunOutcome b = gpu.runKernel(*prog, dims, mem);
    EXPECT_GE(b.startCycle, a.endCycle);
}

TEST(Gpu, SkipTimeAdvancesClock)
{
    Gpu gpu(GpuConfig::testTiny());
    Cycle before = gpu.now();
    gpu.skipTime(12345);
    EXPECT_EQ(gpu.now(), before + 12345);
}

TEST(Gpu, MoreWorkTakesLonger)
{
    ProgramPtr prog = countedAluKernel(20);
    auto cycles_for = [&](std::uint32_t wgs) {
        Gpu gpu(GpuConfig::testTiny());
        func::GlobalMemory mem(1 << 20);
        func::LaunchDims dims{wgs, 4, 0};
        return gpu.runKernel(*prog, dims, mem).cycles();
    };
    // 64 workgroups exceed the tiny GPU's residency: must serialise.
    EXPECT_GT(cycles_for(256), cycles_for(8));
}

TEST(Gpu, BarrierExchangesLdsData)
{
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = barrierKernel();
    func::LaunchDims dims{2, 2, 0};
    RunOutcome out = gpu.runKernel(*prog, dims, mem);
    EXPECT_EQ(out.wavesCompleted, 4u);
    // Functional cross-wave exchange through LDS is validated by the
    // run completing (a broken barrier would deadlock or read zeros and
    // still complete; the deadlock is the real hazard covered here).
}

TEST(Gpu, MonitorSeesEveryWaveAndInstruction)
{
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = countedAluKernel(10);
    func::LaunchDims dims{8, 4, 0};
    RecordingMonitor mon;
    RunOutcome out = gpu.runKernel(*prog, dims, mem, &mon);
    EXPECT_EQ(mon.dispatched.size(), 32u);
    EXPECT_EQ(mon.retired.size(), 32u);
    EXPECT_EQ(mon.insts, out.instsIssued);
    EXPECT_TRUE(mon.ordered);
    // Loop kernel: 1 preamble block + 10 loop blocks + 1 tail block
    // per warp.
    EXPECT_EQ(mon.bbs, 32u * 12u);
}

TEST(Gpu, EarlyStopDrainsResidents)
{
    struct StopAfter : KernelMonitor
    {
        std::uint64_t retired = 0;
        bool wantsStop(Cycle) override { return retired >= 8; }
        void
        onWaveRetired(WarpId, Cycle, std::uint64_t) override
        {
            ++retired;
        }
    };
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = countedAluKernel(10);
    func::LaunchDims dims{512, 4, 0}; // far more than residency
    StopAfter mon;
    RunOutcome out = gpu.runKernel(*prog, dims, mem, &mon);
    EXPECT_TRUE(out.stoppedEarly);
    EXPECT_LT(out.firstUndispatchedWg, 512u);
    // Every dispatched wave retired (the drain).
    EXPECT_EQ(out.wavesCompleted, out.firstUndispatchedWg * 4u);
}

TEST(Gpu, IpcTraceAccountsAllInstructions)
{
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = countedAluKernel(10);
    func::LaunchDims dims{8, 4, 0};
    timing::RunOptions opts;
    opts.collectIpcTrace = true;
    opts.ipcBucketCycles = 64;
    RunOutcome out = gpu.runKernel(*prog, dims, mem, nullptr, opts);
    double total = 0;
    for (double v : out.ipcTrace)
        total += v * opts.ipcBucketCycles;
    EXPECT_NEAR(total, static_cast<double>(out.instsIssued), 0.5);
}

TEST(Gpu, MemoryBoundKernelSlowerThanAluBound)
{
    // Streaming loads vs pure ALU with the same instruction count.
    KernelBuilder mb("mem");
    mb.sMov(3, imm(0));
    mb.vMad(1, vreg(0), imm(64), imm(64)); // scattered line per lane
    Label loop = mb.label();
    mb.bind(loop);
    mb.flatLoad(2, 1);
    mb.vAddU32(1, vreg(1), imm(64 * 64));
    mb.sAdd(3, sreg(3), imm(1));
    mb.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(20));
    mb.branch(Opcode::S_CBRANCH_SCC1, loop);
    mb.endProgram();
    ProgramPtr mem_prog = mb.finish();

    func::GlobalMemory mem(64ull << 20);
    mem.allocate(32ull << 20); // back the loads
    Gpu gpu(GpuConfig::testTiny());
    func::LaunchDims dims{32, 4, 0};
    Cycle mem_cycles = gpu.runKernel(*mem_prog, dims, mem).cycles();

    Gpu gpu2(GpuConfig::testTiny());
    ProgramPtr alu = countedAluKernel(25); // similar dynamic count
    Cycle alu_cycles = gpu2.runKernel(*alu, dims, mem).cycles();
    EXPECT_GT(mem_cycles, 2 * alu_cycles);
}

TEST(Gpu, Mi100ConfigurationRuns)
{
    timing::Gpu gpu(GpuConfig::mi100());
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = countedAluKernel(10);
    func::LaunchDims dims{64, 4, 0};
    RunOutcome out = gpu.runKernel(*prog, dims, mem);
    EXPECT_EQ(out.wavesCompleted, 256u);
}

TEST(Gpu, LdsCapacityLimitsResidency)
{
    // Workgroups that each claim 40KB of LDS: only one fits per CU, so
    // the same launch takes longer than without LDS pressure.
    auto build = [](std::uint32_t lds) {
        KernelBuilder b("lds_heavy");
        b.setLdsBytes(lds);
        b.sMov(3, imm(0));
        Label loop = b.label();
        b.bind(loop);
        b.vAddF32(1, vreg(1), immF(1.0f));
        b.sAdd(3, sreg(3), imm(1));
        b.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(50));
        b.branch(Opcode::S_CBRANCH_SCC1, loop);
        b.endProgram();
        return b.finish();
    };
    func::GlobalMemory mem(1 << 20);
    func::LaunchDims dims{64, 4, 0};
    timing::Gpu g1(GpuConfig::testTiny());
    Cycle heavy = g1.runKernel(*build(40 * 1024), dims, mem).cycles();
    timing::Gpu g2(GpuConfig::testTiny());
    Cycle light = g2.runKernel(*build(0), dims, mem).cycles();
    EXPECT_GT(heavy, 2 * light);
}

TEST(Gpu, WorkgroupsSpreadAcrossCus)
{
    // With as many workgroups as CUs, dispatch must not pile everything
    // onto one CU: the kernel should take about one workgroup's time.
    timing::Gpu gpu(GpuConfig::testTiny()); // 4 CUs
    func::GlobalMemory mem(1 << 20);
    ProgramPtr prog = countedAluKernel(100);
    func::LaunchDims one{1, 4, 0};
    Cycle single = gpu.runKernel(*prog, one, mem).cycles();
    timing::Gpu gpu2(GpuConfig::testTiny());
    func::LaunchDims four{4, 4, 0};
    Cycle spread = gpu2.runKernel(*prog, four, mem).cycles();
    EXPECT_LT(spread, single * 2); // parallel, not 4x serial
}

TEST(Gpu, WaitcntSplitChangesMonitoredBlocks)
{
    struct CountBbs : KernelMonitor
    {
        std::uint64_t bbs = 0;
        void
        onBbExecuted(WarpId, isa::BbId, Cycle, Cycle,
                     std::uint32_t) override
        {
            ++bbs;
        }
    };
    KernelBuilder b("wc");
    b.vMov(1, imm(0));
    b.waitcnt();
    b.vMov(2, imm(0));
    b.endProgram();
    ProgramPtr prog = b.finish();
    func::GlobalMemory mem(1 << 20);
    func::LaunchDims dims{1, 1, 0};

    timing::Gpu g1(GpuConfig::testTiny());
    CountBbs plain;
    g1.runKernel(*prog, dims, mem, &plain);
    timing::Gpu g2(GpuConfig::testTiny());
    CountBbs split;
    timing::RunOptions opts;
    opts.splitBbAtWaitcnt = true;
    g2.runKernel(*prog, dims, mem, &split, opts);
    EXPECT_EQ(plain.bbs, 1u);
    EXPECT_EQ(split.bbs, 2u);
}

TEST(ComputeUnit, EmptyCuHasNoNextEvent)
{
    // Once its last wave retires a CU has nothing to issue until the
    // next placement, so its hint must say so: a finite one would make
    // the event loop wake the empty CU every cycle.
    const GpuConfig cfg = GpuConfig::testTiny();
    timing::MemorySystem memsys(cfg);
    func::WarpCapturer capturer;
    timing::ComputeUnit cu(cfg, 0, memsys, capturer);
    ProgramPtr prog = countedAluKernel(4);
    isa::BasicBlockTable bbs(*prog);
    func::GlobalMemory mem(1 << 20);
    func::LaunchDims dims{1, 4, 0};
    timing::KernelContext ctx;
    ctx.program = prog.get();
    ctx.bbTable = &bbs;
    ctx.dims = &dims;
    ctx.mem = &mem;
    cu.startKernel(ctx);
    cu.placeWorkgroup(0, 0);
    ASSERT_NE(cu.nextHint(), kNoCycle);

    std::uint32_t retired = 0;
    Cycle now = 0;
    for (; !cu.idle() && now < 100000; ++now)
        retired += cu.tick(now).retired;
    ASSERT_TRUE(cu.idle());
    EXPECT_EQ(retired, 4u);
    EXPECT_EQ(cu.nextHint(), kNoCycle);
    EXPECT_EQ(cu.tick(now).hint, kNoCycle);
}
