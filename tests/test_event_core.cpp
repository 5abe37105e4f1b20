/**
 * @file
 * Determinism tests for the event-driven run loop: the event core must
 * match the reference per-cycle scanning loop (useSeedLoop) exactly —
 * same cycles, instruction counts, IPC trace, monitor callback stream
 * and exported statistics — on both issue paths (monitored and
 * monitor-free), for synthetic kernels and for real workloads on the
 * r9nano config.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "isa/builder.hpp"
#include "timing/dispatcher.hpp"
#include "timing/gpu.hpp"
#include "timing/monitor.hpp"
#include "workloads/workload.hpp"

using namespace photon;
using namespace photon::isa;
using timing::Gpu;
using timing::KernelMonitor;
using timing::RunOptions;
using timing::RunOutcome;

namespace {

ProgramPtr
aluKernel(std::uint32_t iters)
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
    b.emit(Opcode::V_LSHL_B32, vreg(1), sreg(kSgprWaveInGroup), imm(2));
    b.dsWrite(1, sreg(kSgprWaveInGroup));
    b.barrier();
    b.emit(Opcode::S_XOR_B32, sreg(3), sreg(kSgprWaveInGroup), imm(1));
    b.emit(Opcode::V_LSHL_B32, vreg(2), sreg(3), imm(2));
    b.dsRead(3, 2);
    b.endProgram();
    return b.finish();
}

ProgramPtr
memKernel(std::uint32_t iters)
{
    KernelBuilder b("mem");
    b.sMov(3, imm(0));
    b.vMad(1, vreg(0), imm(64), imm(64)); // scattered line per lane
    Label loop = b.label();
    b.bind(loop);
    b.flatLoad(2, 1);
    b.vAddU32(1, vreg(1), imm(64 * 64));
    b.sAdd(3, sreg(3), imm(1));
    b.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(iters));
    b.branch(Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    return b.finish();
}

/** FNV-1a hash over the full monitor callback stream: any reordering,
 *  dropped or extra callback between two runs changes the hash. */
struct HashingMonitor : KernelMonitor
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        h ^= v;
        h *= 1099511628211ull;
    }
    void
    onWaveDispatched(WarpId w, Cycle c) override
    {
        mix(1), mix(w), mix(c);
    }
    void
    onWaveRetired(WarpId w, Cycle c, std::uint64_t insts) override
    {
        mix(2), mix(w), mix(c), mix(insts);
    }
    void
    onInstruction(WarpId w, const func::StepResult &, Cycle issue,
                  Cycle complete) override
    {
        mix(3), mix(w), mix(issue), mix(complete);
    }
    void
    onBbExecuted(WarpId w, isa::BbId bb, Cycle issue, Cycle retire,
                 std::uint32_t lanes) override
    {
        mix(4), mix(w), mix(bb), mix(issue), mix(retire), mix(lanes);
    }
};

/** Full-outcome equality, including the IPC trace and the occupancy
 *  integrals. */
void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b,
                  const std::string &what)
{
    EXPECT_EQ(a.cycles(), b.cycles()) << what;
    EXPECT_EQ(a.endCycle, b.endCycle) << what;
    EXPECT_EQ(a.instsIssued, b.instsIssued) << what;
    EXPECT_EQ(a.wavesCompleted, b.wavesCompleted) << what;
    EXPECT_EQ(a.stoppedEarly, b.stoppedEarly) << what;
    EXPECT_EQ(a.firstUndispatchedWg, b.firstUndispatchedWg) << what;
    EXPECT_EQ(a.activeCycles, b.activeCycles) << what;
    EXPECT_EQ(a.busyCuCycles, b.busyCuCycles) << what;
    EXPECT_EQ(a.waveCycles, b.waveCycles) << what;
    EXPECT_EQ(a.ipcTrace, b.ipcTrace) << what;
}

struct GpuRun
{
    RunOutcome out;
    std::uint64_t monitorHash = 0;
    std::map<std::string, double> stats;
};

GpuRun
runOnGpu(const ProgramPtr &prog, func::LaunchDims dims,
         std::uint64_t mem_bytes, const RunOptions &opts)
{
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(mem_bytes);
    if (mem_bytes > (1 << 20))
        mem.allocate(mem_bytes / 2); // back the loads
    HashingMonitor mon;
    GpuRun r;
    r.out = gpu.runKernel(*prog, dims, mem, &mon, opts);
    r.monitorHash = mon.h;
    StatRegistry reg;
    gpu.exportStats(reg);
    r.stats = reg.values();
    return r;
}

/** Like runOnGpu but with no monitor attached: the hook-free issue. */
GpuRun
runOnGpuNoMonitor(const ProgramPtr &prog, func::LaunchDims dims,
                  std::uint64_t mem_bytes, const RunOptions &opts)
{
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(mem_bytes);
    if (mem_bytes > (1 << 20))
        mem.allocate(mem_bytes / 2); // back the loads
    GpuRun r;
    r.out = gpu.runKernel(*prog, dims, mem, nullptr, opts);
    StatRegistry reg;
    gpu.exportStats(reg);
    r.stats = reg.values();
    return r;
}

/** The kernel shapes that exercise distinct run-loop paths: ALU-bound
 *  (dense issue), barrier (wave-slot lists + releases), memory-bound
 *  (L1V probe/commit, MSHRs, long idle gaps) and ALU-bound at full
 *  occupancy (every wave slot, multi-ready arbitration). */
const struct KernelCase
{
    const char *name;
    ProgramPtr (*build)();
    func::LaunchDims dims;
    std::uint64_t memBytes;
} kKernelCases[] = {
    {"alu", [] { return aluKernel(20); }, {16, 4, 0}, 1 << 20},
    {"barrier", [] { return barrierKernel(); }, {8, 2, 0}, 1 << 20},
    {"mem", [] { return memKernel(12); }, {32, 4, 0}, 64ull << 20},
    // Full occupancy: 8 resident workgroups x 5 waves fill all 40 wave
    // slots of each tiny CU (every lane of every SIMD, twice over), so
    // arbitration sees up to 10 ready waves per SIMD.
    {"alu-full", [] { return aluKernel(20); }, {64, 5, 0}, 1 << 20},
};

struct WorkloadRun
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::map<std::string, double> stats;
    std::uint64_t monitorHash = 0;
    std::uint64_t memHash = 0;
};

/** Every launch of a fresh @p w instance on a full-detailed r9nano
 *  platform, driven straight through Gpu::runKernel with no launch
 *  trace: the event core captures each workgroup at dispatch and
 *  replays it, the seed loop (@p seed_loop) emulates inline at issue.
 *  With @p monitored, a HashingMonitor that never releases its hooks
 *  rides along (the hooked issue); otherwise the run is monitor-free
 *  (the hook-free issue). */
WorkloadRun
runWorkloadLaunches(workloads::WorkloadPtr w, bool seed_loop,
                    bool monitored = false)
{
    driver::Platform platform(GpuConfig::r9Nano(),
                              driver::SimMode::FullDetailed);
    w->setup(platform);
    RunOptions opts;
    opts.useSeedLoop = seed_loop;
    HashingMonitor mon;
    WorkloadRun r;
    for (const workloads::LaunchSpec &l : w->launches()) {
        func::LaunchDims dims{l.numWorkgroups, l.wavesPerWorkgroup,
                              l.kernarg};
        RunOutcome out = platform.gpu().runKernel(
            *l.program, dims, platform.mem(), monitored ? &mon : nullptr,
            opts);
        r.cycles += out.cycles();
        r.insts += out.instsIssued;
    }
    StatRegistry reg;
    platform.gpu().exportStats(reg);
    r.stats = reg.values();
    r.monitorHash = mon.h;
    r.memHash = platform.mem().contentHash();
    return r;
}

} // namespace

TEST(EventCore, EventLoopMatchesSeedLoop)
{
    for (const auto &kc : kKernelCases) {
        ProgramPtr prog = kc.build();
        RunOptions opts;
        opts.collectIpcTrace = true;
        opts.ipcBucketCycles = 64;
        GpuRun ev = runOnGpu(prog, kc.dims, kc.memBytes, opts);
        opts.useSeedLoop = true;
        GpuRun seed = runOnGpu(prog, kc.dims, kc.memBytes, opts);
        expectSameOutcome(ev.out, seed.out, kc.name);
        EXPECT_EQ(ev.monitorHash, seed.monitorHash) << kc.name;
        EXPECT_EQ(ev.stats, seed.stats) << kc.name;

        // Monitor-free: the hook-free issue against the same seed.
        std::string what = std::string(kc.name) + " no-monitor";
        GpuRun seed_free =
            runOnGpuNoMonitor(prog, kc.dims, kc.memBytes, opts);
        opts.useSeedLoop = false;
        GpuRun fast = runOnGpuNoMonitor(prog, kc.dims, kc.memBytes, opts);
        expectSameOutcome(fast.out, seed_free.out, what);
        EXPECT_EQ(fast.stats, seed_free.stats) << what;
    }
}

TEST(EventCore, RealWorkloadsMatchSeedLoop)
{
    // A compute-bound, a memory-bound and an LDS/barrier workload at
    // full r9nano scale: dispatch across 64 CUs, real cache and DRAM
    // contention. mmtiled's waves exchange tiles through LDS, so its
    // dispatch capture runs each workgroup phase by phase.
    const struct
    {
        const char *name;
        workloads::WorkloadPtr (*make)();
    } cases[] = {
        {"mm 128", [] { return workloads::makeMm(128); }},
        {"spmv 1024", [] { return workloads::makeSpmv(1024); }},
        {"mmtiled 128", [] { return workloads::makeMmTiled(128); }},
    };
    for (const auto &c : cases) {
        WorkloadRun ev = runWorkloadLaunches(c.make(), false);
        WorkloadRun seed = runWorkloadLaunches(c.make(), true);
        EXPECT_GT(seed.insts, 0u) << c.name;
        EXPECT_EQ(ev.cycles, seed.cycles) << c.name;
        EXPECT_EQ(ev.insts, seed.insts) << c.name;
        EXPECT_EQ(ev.stats, seed.stats) << c.name;
        EXPECT_EQ(ev.memHash, seed.memHash) << c.name;

        // Monitored leg: dispatch capture under a monitor that keeps
        // every event must reproduce inline emulation's event stream.
        const std::string what = std::string(c.name) + " monitored";
        WorkloadRun ev_mon = runWorkloadLaunches(c.make(), false, true);
        WorkloadRun seed_mon = runWorkloadLaunches(c.make(), true, true);
        EXPECT_NE(seed_mon.monitorHash, HashingMonitor{}.h) << what;
        EXPECT_EQ(ev_mon.cycles, seed_mon.cycles) << what;
        EXPECT_EQ(ev_mon.insts, seed_mon.insts) << what;
        EXPECT_EQ(ev_mon.stats, seed_mon.stats) << what;
        EXPECT_EQ(ev_mon.monitorHash, seed_mon.monitorHash) << what;
        EXPECT_EQ(ev_mon.memHash, seed_mon.memHash) << what;
        EXPECT_EQ(ev_mon.cycles, seed.cycles) << what;
    }
}

TEST(EventCore, ReleasedMonitorFinishesOnTheFastPath)
{
    // A monitor that lets go of its hooks once the last workgroup is
    // placed: the run must still match the monitor-free run exactly,
    // every retirement must still reach the monitor (with its full
    // instruction count), and no per-instruction, block or dispatch
    // event may arrive after the release.
    struct ReleaseAtLastDispatch : KernelMonitor
    {
        bool released = false;
        Cycle releasedAt = kNoCycle;
        std::uint64_t afterRelease = 0;
        std::uint64_t retired = 0;
        std::uint64_t retiredInsts = 0;
        std::vector<timing::KernelPhase> phases;

        void
        onKernelPhase(timing::KernelPhase p, Cycle) override
        {
            phases.push_back(p);
        }
        void
        onWaveDispatched(WarpId, Cycle) override
        {
            afterRelease += released;
        }
        void
        onWaveRetired(WarpId, Cycle, std::uint64_t insts) override
        {
            ++retired;
            retiredInsts += insts;
        }
        void
        onInstruction(WarpId, const func::StepResult &, Cycle,
                      Cycle) override
        {
            afterRelease += released;
        }
        void
        onBbExecuted(WarpId, isa::BbId, Cycle, Cycle,
                     std::uint32_t) override
        {
            afterRelease += released;
        }
        bool
        wantsRelease(Cycle now, bool all_dispatched) override
        {
            if (all_dispatched && !released) {
                released = true;
                releasedAt = now;
            }
            return released;
        }
    };
    for (const auto &kc : kKernelCases) {
        ProgramPtr prog = kc.build();
        // Eight times the cases' geometry: more workgroups than the
        // tiny GPU holds, so the release happens mid-run.
        func::LaunchDims dims = kc.dims;
        dims.numWorkgroups *= 8;
        RunOptions opts;
        opts.collectIpcTrace = true;
        opts.ipcBucketCycles = 64;
        GpuRun free_run = runOnGpuNoMonitor(prog, dims, kc.memBytes, opts);

        Gpu gpu(GpuConfig::testTiny());
        func::GlobalMemory mem(kc.memBytes);
        if (kc.memBytes > (1 << 20))
            mem.allocate(kc.memBytes / 2);
        ReleaseAtLastDispatch mon;
        RunOutcome out = gpu.runKernel(*prog, dims, mem, &mon, opts);
        StatRegistry reg;
        gpu.exportStats(reg);

        expectSameOutcome(out, free_run.out, kc.name);
        EXPECT_EQ(reg.values(), free_run.stats) << kc.name;
        EXPECT_TRUE(mon.released) << kc.name;
        EXPECT_GT(mon.releasedAt, out.startCycle) << kc.name;
        EXPECT_EQ(mon.afterRelease, 0u) << kc.name;
        EXPECT_EQ(mon.retired, dims.totalWaves()) << kc.name;
        EXPECT_EQ(mon.retiredInsts, out.instsIssued) << kc.name;
        EXPECT_EQ(mon.phases.back(), timing::KernelPhase::Complete)
            << kc.name;
    }
}

TEST(EventCore, EarlyStopIdenticalAcrossLoops)
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
    ProgramPtr prog = aluKernel(10);
    func::LaunchDims dims{512, 4, 0}; // far more than residency
    auto run = [&](const RunOptions &opts) {
        Gpu gpu(GpuConfig::testTiny());
        func::GlobalMemory mem(1 << 20);
        StopAfter mon;
        return gpu.runKernel(*prog, dims, mem, &mon, opts);
    };
    RunOptions opts;
    RunOutcome ev = run(opts);
    opts.useSeedLoop = true;
    RunOutcome seed = run(opts);
    EXPECT_TRUE(ev.stoppedEarly);
    expectSameOutcome(ev, seed, "early-stop seed");
}

TEST(EventCore, OccupancyIntegralsAreConsistent)
{
    ProgramPtr prog = aluKernel(20);
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    func::LaunchDims dims{8, 4, 0};
    RunOutcome out = gpu.runKernel(*prog, dims, mem);
    const std::uint32_t cus = GpuConfig::testTiny().numCus;
    EXPECT_GT(out.activeCycles, 0u);
    EXPECT_LE(out.activeCycles, out.cycles());
    // Each active cycle has between 1 and numCus busy CUs...
    EXPECT_GE(out.busyCuCycles, out.activeCycles);
    EXPECT_LE(out.busyCuCycles, out.activeCycles * cus);
    // ...and each busy CU holds at least one resident wavefront.
    EXPECT_GE(out.waveCycles, out.busyCuCycles);
}

TEST(EventCore, GpuStatsExposeOccupancyCounters)
{
    ProgramPtr prog = aluKernel(10);
    Gpu gpu(GpuConfig::testTiny());
    func::GlobalMemory mem(1 << 20);
    func::LaunchDims dims{8, 4, 0};
    gpu.runKernel(*prog, dims, mem);
    StatRegistry reg;
    gpu.exportStats(reg);
    EXPECT_EQ(reg.get("gpu.kernels"), 1.0);
    EXPECT_GT(reg.get("gpu.active_cycles"), 0.0);
    EXPECT_GT(reg.get("gpu.busy_cu_cycles"), 0.0);
    EXPECT_GT(reg.get("gpu.wave_cycles"), 0.0);
    EXPECT_TRUE(reg.has("gpu.avg_busy_cus"));
    EXPECT_TRUE(reg.has("gpu.avg_resident_waves"));
    // L1I sees instruction fetches even for a pure-ALU kernel; the new
    // per-cache counters must be present (L1K may be all hits or all
    // misses but the keys always export).
    EXPECT_GT(reg.get("mem.l1i.hits") + reg.get("mem.l1i.misses"), 0.0);
    EXPECT_TRUE(reg.has("mem.l1k.hits"));
    EXPECT_TRUE(reg.has("mem.l1k.misses"));
}

TEST(EventCore, DispatcherRetryFlagGatesRescans)
{
    GpuConfig cfg = GpuConfig::testTiny();
    timing::MemorySystem memsys(cfg);
    func::WarpCapturer capturer;
    std::vector<timing::ComputeUnit> cus;
    cus.reserve(cfg.numCus);
    for (std::uint32_t i = 0; i < cfg.numCus; ++i)
        cus.emplace_back(cfg, i, memsys, capturer);

    ProgramPtr prog = aluKernel(4);
    isa::BasicBlockTable bb_table(*prog, false);
    func::GlobalMemory mem(1 << 20);
    func::LaunchDims dims{1024, 4, 0}; // far exceeds total residency
    timing::KernelContext ctx;
    ctx.program = prog.get();
    ctx.bbTable = &bb_table;
    ctx.dims = &dims;
    ctx.mem = &mem;
    for (auto &cu : cus)
        cu.startKernel(ctx);

    timing::Dispatcher d(cus);
    d.startKernel(dims.numWorkgroups);
    EXPECT_TRUE(d.wantsDispatch());

    // Fill every CU. The retry flag must clear: nothing changed, so a
    // rescan could not place anything.
    d.tryDispatch(0);
    EXPECT_FALSE(d.allDispatched());
    EXPECT_FALSE(d.wantsDispatch());

    // Freed capacity re-arms the flag; halt()/resume() override it.
    d.notifyCapacityFreed();
    EXPECT_TRUE(d.wantsDispatch());
    d.halt();
    EXPECT_FALSE(d.wantsDispatch());
    d.resume();
    EXPECT_TRUE(d.wantsDispatch());
}
