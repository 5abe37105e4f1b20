#include "timing/gpu.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "isa/basic_block.hpp"
#include "sim/log.hpp"
#include "timing/reference.hpp"

namespace photon::timing {

const char *
kernelPhaseName(KernelPhase phase)
{
    switch (phase) {
      case KernelPhase::Launch: return "launch";
      case KernelPhase::Detailed: return "detailed";
      case KernelPhase::Draining: return "draining";
      case KernelPhase::Complete: return "complete";
    }
    return "?";
}

Gpu::Gpu(const GpuConfig &cfg)
    : cfg_(cfg), memsys_(cfg), dispatcher_(cus_)
{
    cus_.reserve(cfg.numCus);
    for (std::uint32_t i = 0; i < cfg.numCus; ++i)
        cus_.emplace_back(cfg_, i, memsys_, capturer_);
    filedAt_.assign(cfg.numCus, kNoCycle);
    cuBusy_.assign(cfg.numCus, 0);
    prevRetired_.assign(cfg.numCus, 0);
    wheelWords_ = (cfg.numCus + 63) / 64;
    wheelBits_.assign(std::size_t{kWheelSize} * wheelWords_, 0);
}

Gpu::~Gpu() = default;

RunOutcome
Gpu::runKernel(const isa::Program &program, const func::LaunchDims &dims,
               func::GlobalMemory &mem, KernelMonitor *monitor,
               const RunOptions &opts)
{
    PHOTON_ASSERT(dims.numWorkgroups > 0, "empty launch");
    PHOTON_ASSERT(dims.wavesPerWorkgroup > 0 &&
                  dims.wavesPerWorkgroup <=
                      kSimdsPerCu * kWavesPerSimd,
                  "workgroup does not fit in one CU");

    isa::BasicBlockTable bb_table(program, opts.splitBbAtWaitcnt);
    KernelContext ctx;
    ctx.program = &program;
    ctx.bbTable = &bb_table;
    ctx.dims = &dims;
    ctx.mem = &mem;
    ctx.monitor = monitor;
    ctx.replay = opts.replay;
    ctx.codeBase = (1ull << 40) + (kernelSeq_++ << 24);

    if (opts.useSeedLoop) {
        // Frozen AoS per-cycle reference engine: its own CUs and
        // dispatch state, the Gpu's memory system and clock, so the
        // seed and event variants of one platform see identical cache
        // history and stay bit-comparable. It emulates inline and
        // ignores ctx.replay.
        if (!reference_)
            reference_ = std::make_unique<ReferenceEngine>(cfg_, memsys_);
        if (monitor) {
            monitor->onKernelPhase(KernelPhase::Launch, now_);
            monitor->onKernelPhase(KernelPhase::Detailed, now_);
        }
        RunOutcome out = reference_->run(ctx, monitor, opts, now_);
        if (monitor)
            monitor->onKernelPhase(KernelPhase::Complete, now_);
        out.endCycle = now_;
        if (opts.collectIpcTrace) {
            for (double &v : out.ipcTrace)
                v /= static_cast<double>(opts.ipcBucketCycles);
        }
        ++kernelsRun_;
        activeCyclesTotal_ += out.activeCycles;
        busyCuCyclesTotal_ += out.busyCuCycles;
        waveCyclesTotal_ += out.waveCycles;
        return out;
    }

    ipc_ = IpcCounts{{}, now_, opts.ipcBucketCycles};
    if (opts.collectIpcTrace)
        ctx.ipc = &ipc_;
    for (ComputeUnit &cu : cus_)
        cu.startKernel(ctx);
    dispatcher_.resume();
    dispatcher_.startKernel(dims.numWorkgroups);

    heap_ = EventHeap{};
    std::fill(wheelBits_.begin(), wheelBits_.end(), 0);
    std::fill(filedAt_.begin(), filedAt_.end(), kNoCycle);
    std::fill(cuBusy_.begin(), cuBusy_.end(), 0);
    std::fill(prevRetired_.begin(), prevRetired_.end(), 0);
    activeCuCount_ = 0;
    residentWaveCount_ = 0;
    wavesPerWg_ = dims.wavesPerWorkgroup;

    if (monitor) {
        monitor->onKernelPhase(KernelPhase::Launch, now_);
        monitor->onKernelPhase(KernelPhase::Detailed, now_);
    }

    RunOutcome out = runEventLoop(monitor, opts);

    if (monitor)
        monitor->onKernelPhase(KernelPhase::Complete, now_);

    out.endCycle = now_;
    out.firstUndispatchedWg = dispatcher_.nextWorkgroup();
    for (const ComputeUnit &cu : cus_) {
        out.instsIssued += cu.instsIssued();
        out.wavesCompleted += cu.wavesRetired();
        runaheadInstsTotal_ += cu.runaheadInsts();
    }
    if (opts.collectIpcTrace) {
        out.ipcTrace = std::move(ipc_.buckets);
        for (double &v : out.ipcTrace)
            v /= static_cast<double>(opts.ipcBucketCycles);
    }
    ++kernelsRun_;
    activeCyclesTotal_ += out.activeCycles;
    busyCuCyclesTotal_ += out.busyCuCycles;
    waveCyclesTotal_ += out.waveCycles;
    return out;
}

RunOutcome
Gpu::runEventLoop(KernelMonitor *monitor, const RunOptions &opts)
{
    RunOutcome out;
    out.startCycle = now_;
    bool stopping = false;

    std::vector<std::uint32_t> placed;
    std::vector<std::uint32_t> due;
    placed.reserve(cfg_.numCus);
    due.reserve(cfg_.numCus);

    // The monitor's hooks stay attached until it releases them; each
    // CU's tick follows (ComputeUnit::releaseHooks). The tick returns
    // the issue/retire/hint summary the bookkeeping below needs, so the
    // cold CU object is touched only when a retirement happened.
    bool hooked = monitor != nullptr;

    while (true) {
        if (hooked && !stopping && monitor->wantsStop(now_)) {
            stopping = true;
            dispatcher_.halt();
            monitor->onKernelPhase(KernelPhase::Draining, now_);
        }
        if (dispatcher_.wantsDispatch()) {
            placed.clear();
            dispatcher_.tryDispatch(now_, &placed);
            for (std::uint32_t cu : placed) {
                residentWaveCount_ += wavesPerWg_;
                updateBusy(cu);
                fileCu(cu, cus_[cu].nextHint(), now_);
            }
            if (dispatcher_.allDispatched())
                for (ComputeUnit &cu : cus_)
                    cu.endPlacements();
        }
        if (hooked &&
            monitor->wantsRelease(now_, dispatcher_.allDispatched())) {
            hooked = false;
            for (ComputeUnit &cu : cus_)
                cu.releaseHooks();
        }

        bool any_resident = activeCuCount_ > 0;

        // Pull every CU due this cycle. Entries are lazily invalidated:
        // only the one matching the CU's filing cycle is live. The
        // wheel slot holds exactly this cycle's near events (non-empty
        // slots are never advanced past, so no lap-old bits linger);
        // far events that have come due are merged into the same
        // bitmap, and the bit walk yields ascending cuId order — the
        // serial visiting order — with no sort.
        std::uint64_t *slot =
            &wheelBits_[(now_ & (kWheelSize - 1)) * wheelWords_];
        while (!heap_.empty() && heap_.top().first <= now_) {
            HeapEntry e = heap_.top();
            heap_.pop();
            if (filedAt_[e.second] == e.first)
                slot[e.second / 64] |= std::uint64_t{1}
                                       << (e.second & 63);
        }
        due.clear();
        for (std::uint32_t w = 0; w < wheelWords_; ++w) {
            std::uint64_t m = slot[w];
            slot[w] = 0;
            while (m) {
                std::uint32_t cu =
                    w * 64 +
                    static_cast<std::uint32_t>(std::countr_zero(m));
                m &= m - 1;
                if (filedAt_[cu] == now_) {
                    filedAt_[cu] = kNoCycle;
                    due.push_back(cu);
                }
            }
        }

        std::uint32_t issued = 0;
        cuTicksTotal_ += due.size();
        for (std::uint32_t cu : due) {
            ComputeUnit::TickSummary t = cus_[cu].tick(now_);
            issued += t.issued;
            // Residency changes only on placement (filed above) or a
            // retirement, so the bookkeeping can skip retire-free ticks.
            if (t.retired) {
                noteRetirements(cu);
                updateBusy(cu);
            }
            fileCu(cu, t.hint, now_ + 1);
        }

        if (issued > 0 && opts.collectIpcTrace)
            ipc_.add(now_, issued);

        bool done = !any_resident &&
                    (dispatcher_.allDispatched() || stopping);
        if (done)
            break;

        Cycle next;
        if (issued == 0) {
            // Earliest filed event: first occupied wheel slot ahead of
            // now, or the heap top. Either may be stale, which only
            // makes the jump shorter (a spurious, side-effect-free
            // visit), never longer.
            Cycle cand = kNoCycle;
            for (Cycle d = 1; d < kWheelSize; ++d) {
                const std::uint64_t *s =
                    &wheelBits_[((now_ + d) & (kWheelSize - 1)) *
                                wheelWords_];
                std::uint64_t any = 0;
                for (std::uint32_t w = 0; w < wheelWords_; ++w)
                    any |= s[w];
                if (any) {
                    cand = now_ + d;
                    break;
                }
            }
            if (!heap_.empty())
                cand = std::min(cand, heap_.top().first);
            next = (cand == kNoCycle) ? now_ + 1
                                      : std::max(now_ + 1, cand);
        } else {
            next = now_ + 1;
        }
        accountAdvance(out, next - now_);
        now_ = next;
    }

    out.stoppedEarly = stopping;
    return out;
}

void
Gpu::fileCu(std::uint32_t cu, Cycle h, Cycle floor)
{
    if (h == kNoCycle) {
        filedAt_[cu] = kNoCycle;
        return;
    }
    if (h < floor)
        h = floor;
    // An earlier live entry already wakes the CU no later than h; the
    // wake refreshes the hint and refiles, so events are never missed.
    if (filedAt_[cu] != kNoCycle && filedAt_[cu] <= h)
        return;
    filedAt_[cu] = h;
    if (h - now_ < kWheelSize) {
        wheelBits_[(h & (kWheelSize - 1)) * wheelWords_ + cu / 64] |=
            std::uint64_t{1} << (cu & 63);
    } else {
        heap_.push({h, cu});
    }
}

void
Gpu::updateBusy(std::uint32_t cu)
{
    std::uint8_t b = cus_[cu].idle() ? 0 : 1;
    if (b == cuBusy_[cu])
        return;
    cuBusy_[cu] = b;
    if (b)
        ++activeCuCount_;
    else
        --activeCuCount_;
}

void
Gpu::noteRetirements(std::uint32_t cu)
{
    std::uint32_t r = cus_[cu].wavesRetired();
    std::uint32_t delta = r - prevRetired_[cu];
    if (delta == 0)
        return;
    prevRetired_[cu] = r;
    residentWaveCount_ -= delta;
    dispatcher_.notifyCapacityFreed();
}

void
Gpu::accountAdvance(RunOutcome &out, Cycle dt) const
{
    if (activeCuCount_ == 0)
        return;
    out.activeCycles += dt;
    out.busyCuCycles += dt * activeCuCount_;
    out.waveCycles += dt * residentWaveCount_;
}

void
Gpu::exportStats(StatRegistry &stats) const
{
    memsys_.exportStats(stats);
    stats.set("gpu.now_cycles", static_cast<double>(now_));
    stats.set("gpu.kernels", static_cast<double>(kernelsRun_));
    stats.set("gpu.active_cycles",
              static_cast<double>(activeCyclesTotal_));
    stats.set("gpu.busy_cu_cycles",
              static_cast<double>(busyCuCyclesTotal_));
    stats.set("gpu.wave_cycles", static_cast<double>(waveCyclesTotal_));
    if (activeCyclesTotal_ > 0) {
        stats.set("gpu.avg_busy_cus",
                  static_cast<double>(busyCuCyclesTotal_) /
                      static_cast<double>(activeCyclesTotal_));
        stats.set("gpu.avg_resident_waves",
                  static_cast<double>(waveCyclesTotal_) /
                      static_cast<double>(activeCyclesTotal_));
    }
}

void
Gpu::exportWorkCounters(StatRegistry &stats) const
{
    stats.set("gpu.cu_ticks", static_cast<double>(cuTicksTotal_));
    stats.set("gpu.runahead_insts",
              static_cast<double>(runaheadInstsTotal_));
}

} // namespace photon::timing
