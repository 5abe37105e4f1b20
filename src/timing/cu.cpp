#include "timing/cu.hpp"

#include <algorithm>
#include <bit>

#include "sim/log.hpp"

namespace photon::timing {

namespace {

/** Bytes per encoded instruction for L1I address purposes. */
constexpr Addr kInstBytes = 8;

/** Instructions per L1I line, for the pc -> fetch-line shift. */
constexpr std::uint32_t kPcsPerLine =
    static_cast<std::uint32_t>(kLineBytes / kInstBytes);

} // namespace

ComputeUnit::ComputeUnit(const GpuConfig &cfg, std::uint32_t cuId,
                         MemorySystem &memsys, const func::Emulator &emu)
    : cfg_(cfg), cuId_(cuId), memsys_(memsys), emu_(emu)
{
    PHOTON_ASSERT(cfg.wavesPerSimd <= 64,
                  "issue mask is one 64-bit word per SIMD");
    const std::uint32_t slots = cfg.simdsPerCu * cfg.wavesPerSimd;
    slotReady_.assign(slots, kNoCycle);
    slotWarp_.assign(slots, ~std::uint32_t{0});
    waveState_.resize(slots);
    waveReadyAt_.assign(slots, 0);
    waveActive_.assign(slots, 0);
    waveAtBarrier_.assign(slots, 0);
    waveInstCount_.assign(slots, 0);
    waveWgSlot_.assign(slots, 0);
    waveCursor_.resize(slots);
    waveLastFetchLine_.assign(slots, ~std::uint64_t{0});
    waveBbValid_.assign(slots, 0);
    waveCurBb_.assign(slots, isa::kNoBb);
    waveCurBbIssue_.assign(slots, 0);
    waveCurBbLanes_.assign(slots, 0);
    wgs_.resize(cfg.workgroupsPerCu);
    simdFree_.assign(cfg.simdsPerCu, 0);
    simdMin_.assign(cfg.simdsPerCu, kNoCycle);
    slotSimd_.resize(slots);
    slotRi_.resize(slots);
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
        slotSimd_[slot] = slot % cfg.simdsPerCu;
        slotRi_[slot] = slotSimd_[slot] * cfg.wavesPerSimd +
                        slot / cfg.simdsPerCu;
    }

    auto u = [](isa::FuncUnit f) { return static_cast<std::size_t>(f); };
    unitCompleteLat_[u(isa::FuncUnit::SALU)] = cfg.saluLatency;
    unitCompleteLat_[u(isa::FuncUnit::BRANCH)] = cfg.saluLatency;
    unitCompleteLat_[u(isa::FuncUnit::VALU)] = cfg.valuLatency;
    unitCompleteLat_[u(isa::FuncUnit::VALU4)] = 4 * cfg.valuLatency;
    unitCompleteLat_[u(isa::FuncUnit::LDS)] = cfg.ldsLatency;
    unitCompleteLat_[u(isa::FuncUnit::SYNC)] = 1;
    unitCompleteLat_[u(isa::FuncUnit::SMEM)] = 0; // L1K path at commit
    unitCompleteLat_[u(isa::FuncUnit::VMEM)] = 0; // L1V/L2 path per issue
    unitIssueLat_[u(isa::FuncUnit::SALU)] = cfg.scalarIssueCycles;
    unitIssueLat_[u(isa::FuncUnit::BRANCH)] = cfg.scalarIssueCycles;
    unitIssueLat_[u(isa::FuncUnit::SMEM)] = cfg.scalarIssueCycles;
    unitIssueLat_[u(isa::FuncUnit::VALU)] = cfg.vectorIssueCycles;
    unitIssueLat_[u(isa::FuncUnit::VALU4)] = 4 * cfg.vectorIssueCycles;
    unitIssueLat_[u(isa::FuncUnit::LDS)] = cfg.vectorIssueCycles;
    unitIssueLat_[u(isa::FuncUnit::VMEM)] = cfg.vectorIssueCycles;
    unitIssueLat_[u(isa::FuncUnit::SYNC)] = 1;
}

void
ComputeUnit::startKernel(const KernelContext &ctx)
{
    PHOTON_ASSERT(residentWaves_ == 0, "CU busy at kernel start");
    ctx_ = ctx;
    PHOTON_ASSERT(ctx.codeBase % kLineBytes == 0,
                  "code base not line-aligned");
    codeLineBase_ = ctx.codeBase / kLineBytes;
    replayed_ = ctx.replay != nullptr || ctx.capture != nullptr;
    hooksReleased_ = false;
    // Capture buffers only for platforms that ever capture at dispatch
    // (full-mode launches replay their launch trace instead).
    if (ctx.capture && slotTrace_.empty())
        slotTrace_.resize(waveState_.size());
    std::fill(waveActive_.begin(), waveActive_.end(), 0);
    std::fill(slotReady_.begin(), slotReady_.end(), kNoCycle);
    for (Workgroup &wg : wgs_) {
        wg.active = false;
    }
    std::fill(simdFree_.begin(), simdFree_.end(), 0);
    std::fill(simdMin_.begin(), simdMin_.end(), kNoCycle);
    nextHint_ = kNoCycle;
    residentWaves_ = 0;
    residentWgs_ = 0;
    instsIssued_ = 0;
    wavesRetired_ = 0;
    pendingMisses_.clear();
}

bool
ComputeUnit::canAcceptWorkgroup() const
{
    if (residentWgs_ >= cfg_.workgroupsPerCu)
        return false;
    std::uint32_t free_slots =
        static_cast<std::uint32_t>(waveState_.size()) - residentWaves_;
    if (free_slots < ctx_.dims->wavesPerWorkgroup)
        return false;
    std::uint64_t lds_needed =
        std::uint64_t{residentWgs_ + 1} * ctx_.program->ldsBytes();
    return lds_needed <= cfg_.ldsBytesPerCu;
}

void
ComputeUnit::placeWorkgroup(WorkgroupId wg, Cycle now)
{
    PHOTON_ASSERT(canAcceptWorkgroup(), "placeWorkgroup without capacity");

    std::uint32_t wg_slot = 0;
    while (wgs_[wg_slot].active)
        ++wg_slot;
    Workgroup &group = wgs_[wg_slot];
    group.active = true;
    group.id = wg;
    group.wavesLeft = ctx_.dims->wavesPerWorkgroup;
    group.barrierWaiting = 0;
    group.lds.assign(ctx_.program->ldsBytes(), 0);
    group.slots.clear();
    ++residentWgs_;

    std::uint32_t wave_slot = 0;
    for (std::uint32_t i = 0; i < ctx_.dims->wavesPerWorkgroup; ++i) {
        while (waveActive_[wave_slot])
            ++wave_slot;
        func::WaveState &ws = waveState_[wave_slot];
        WarpId warp = wg * ctx_.dims->wavesPerWorkgroup + i;
        if (replayed_)
            ws.initControl(*ctx_.dims, warp);
        else
            ws.init(*ctx_.program, *ctx_.dims, warp);
        waveActive_[wave_slot] = 1;
        waveAtBarrier_[wave_slot] = 0;
        waveReadyAt_[wave_slot] = now + 4; // dispatch latency
        waveInstCount_[wave_slot] = 0;
        waveWgSlot_[wave_slot] = wg_slot;
        waveLastFetchLine_[wave_slot] = ~std::uint64_t{0};
        waveBbValid_[wave_slot] = 0;
        if (ctx_.replay) {
            waveCursor_[wave_slot].bind(ctx_.replay, warp);
        } else if (ctx_.capture) {
            func::LaunchTrace &buf = slotTrace_[wave_slot];
            ctx_.capture->captureAlone(*ctx_.program, *ctx_.dims,
                                       *ctx_.mem, warp, buf);
            waveCursor_[wave_slot].bind(&buf, 0);
        }
        const std::uint32_t ri = readyIndex(wave_slot);
        slotWarp_[ri] = warp;
        group.slots.push_back(wave_slot);
        setSlotReady(wave_slot, waveReadyAt_[wave_slot]);
        ++residentWaves_;
        if (ctx_.monitor && !hooksReleased_)
            ctx_.monitor->onWaveDispatched(warp, now);
    }
    recomputeHint();
}

ComputeUnit::TickSummary
ComputeUnit::tick(Cycle now)
{
    TickSummary out;
    if (residentWaves_ == 0) {
        out.hint = nextHint_;
        return out;
    }
    const std::uint32_t before = wavesRetired_;
    const std::uint32_t simds = cfg_.simdsPerCu;
    const std::uint32_t per_simd = cfg_.wavesPerSimd;

    for (std::uint32_t s = 0; s < simds; ++s) {
        if (simdFree_[s] > now)
            continue;
        // simdMin_ is a lower bound on this SIMD's earliest ready slot:
        // above now it proves the scan would come up empty (and refine
        // nothing — the bound already exceeds now), so skip it.
        if (simdMin_[s] > now)
            continue;
        // Age-prioritised arbitration (GCN issues the oldest ready
        // wavefront): staggers wavefront completion instead of keeping
        // all residents phase-locked. The same pass computes the exact
        // minimum of the non-selected slots' ready cycles, refreshing
        // this SIMD's contribution to the incremental hint; the
        // winner's new ready cycle is folded back in by its issue.
        Cycle min_excl = kNoCycle;
        std::uint32_t best = arbitrate(&slotReady_[s * per_simd],
                                       &slotWarp_[s * per_simd], now,
                                       min_excl);
        simdMin_[s] = min_excl;
        if (best != per_simd) {
            issue(s + best * simds, now);
            ++out.issued;
        }
    }
    recomputeHint();
    out.retired = wavesRetired_ - before;
    out.hint = nextHint_;
    return out;
}

ComputeUnit::TickSummary
ComputeUnit::tickFast(Cycle now)
{
    TickSummary out;
    if (residentWaves_ == 0) {
        out.hint = nextHint_;
        return out;
    }
    const std::uint32_t before = wavesRetired_;
    const std::uint32_t simds = cfg_.simdsPerCu;
    const std::uint32_t per_simd = cfg_.wavesPerSimd;
    for (std::uint32_t s = 0; s < simds; ++s) {
        if (simdFree_[s] > now || simdMin_[s] > now)
            continue;
        Cycle min_excl = kNoCycle;
        std::uint32_t best = arbitrate(&slotReady_[s * per_simd],
                                       &slotWarp_[s * per_simd], now,
                                       min_excl);
        simdMin_[s] = min_excl;
        if (best != per_simd) {
            issueFast(s + best * simds, s * per_simd + best, s, now);
            ++out.issued;
        }
    }
    recomputeHint();
    out.retired = wavesRetired_ - before;
    out.hint = nextHint_;
    return out;
}

void
ComputeUnit::issueFast(std::uint32_t slot, std::uint32_t ri,
                       std::uint32_t simd, Cycle now)
{
    func::WaveState &ws = waveState_[slot];
    const std::uint32_t wg_slot = waveWgSlot_[slot];
    Workgroup &wg = wgs_[wg_slot];
    const std::uint32_t pc_before = ws.pc;

    // No per-instruction monitor: dynamic basic-block tracking is
    // skipped, and per-wave issue counting (observable only through
    // onWaveRetired) runs only for a monitor that released its hooks.

    std::uint64_t fetch_line = codeLineBase_ + pc_before / kPcsPerLine;
    const bool do_fetch = fetch_line != waveLastFetchLine_[slot];
    waveLastFetchLine_[slot] = fetch_line;

    func::StepResult &step = step_;
    if (replayed_)
        waveCursor_[slot].step(*ctx_.program, ws, step);
    else
        emu_.step(*ctx_.program, ws, *ctx_.mem, wg.lds, step);
    if (ctx_.monitor)
        ++waveInstCount_[slot];
    ++instsIssued_;

    // Identical latency math and shared-memory access order to issue():
    // L1V probes in line order, then the instruction fetch, then L1K /
    // L2 walks.
    const std::size_t u = static_cast<std::size_t>(step.unit);
    simdFree_[simd] = now + unitIssueLat_[u];

    Cycle ready;
    if (step.unit == isa::FuncUnit::VMEM) {
        Cycle finish = now;
        pendingMisses_.clear();
        for (std::uint32_t i = 0; i < step.numLines; ++i) {
            MemorySystem::VmemProbe p =
                memsys_.vectorProbe(cuId_, step.lines[i], now);
            if (p.hit)
                finish = std::max(finish, p.ready);
            else
                pendingMisses_.push_back(
                    {step.lines[i], p.missBase, p.mshrIdx});
        }
        Cycle fetch_ready = now;
        if (do_fetch)
            fetch_ready = memsys_.instAccess(cuId_, fetch_line, now);
        for (const MemorySystem::VmemMiss &m : pendingMisses_)
            finish = std::max(finish, memsys_.vectorCommitMiss(cuId_, m));
        ready = step.linesWrite ? now + cfg_.vectorIssueCycles : finish;
        ready = std::max(ready, fetch_ready);
        pendingMisses_.clear();
    } else {
        Cycle fetch_ready = now;
        if (do_fetch)
            fetch_ready = memsys_.instAccess(cuId_, fetch_line, now);
        if (step.unit == isa::FuncUnit::SMEM)
            ready = memsys_.scalarAccess(cuId_, step.lines[0], now);
        else if (step.unit == isa::FuncUnit::LDS)
            ready = now + unitCompleteLat_[u] + step.ldsAccesses / 16;
        else
            ready = now + unitCompleteLat_[u];
        ready = std::max(ready, fetch_ready);
    }

    waveReadyAt_[slot] = ready;
    setSlotReadyAt(ri, simd, ready);

    if (step.barrier) {
        waveAtBarrier_[slot] = 1;
        setSlotReadyAt(ri, simd, kNoCycle);
        ++wg.barrierWaiting;
        if (wg.barrierWaiting == wg.wavesLeft)
            releaseBarrier(wg_slot, now);
    }

    if (step.done)
        retireWave(slot, now);
}

void
ComputeUnit::issue(std::uint32_t slot, Cycle now)
{
    func::WaveState &ws = waveState_[slot];
    const std::uint32_t wg_slot = waveWgSlot_[slot];
    Workgroup &wg = wgs_[wg_slot];
    const std::uint32_t simd = slotSimd_[slot];
    const std::uint32_t pc_before = ws.pc;
    const WarpId warp = ws.warpId;

    // Dynamic basic-block boundary: issuing the first instruction of a
    // block ends the previous one (paper Observation 3 definition).
    bool bb_end = false;
    isa::BbId bb = isa::kNoBb;
    Cycle bb_issue = 0;
    std::uint32_t bb_lanes = 0;
    if (ctx_.bbTable->isLeader(pc_before)) {
        if (waveBbValid_[slot]) {
            bb_end = true;
            bb = waveCurBb_[slot];
            bb_issue = waveCurBbIssue_[slot];
            bb_lanes = waveCurBbLanes_[slot];
        }
        waveCurBb_[slot] = ctx_.bbTable->blockAt(pc_before);
        waveCurBbIssue_[slot] = now;
        waveCurBbLanes_[slot] =
            static_cast<std::uint32_t>(std::popcount(ws.exec));
        waveBbValid_[slot] = 1;
    }

    // Instruction fetch through the L1I: one access per line crossed.
    std::uint64_t fetch_line = codeLineBase_ + pc_before / kPcsPerLine;
    const bool do_fetch = fetch_line != waveLastFetchLine_[slot];
    waveLastFetchLine_[slot] = fetch_line;

    func::StepResult &step = step_;
    if (replayed_)
        waveCursor_[slot].step(*ctx_.program, ws, step);
    else
        emu_.step(*ctx_.program, ws, *ctx_.mem, wg.lds, step);
    ++waveInstCount_[slot];
    ++instsIssued_;

    const std::size_t u = static_cast<std::size_t>(step.unit);
    simdFree_[simd] = now + unitIssueLat_[u];

    // L1V port/tags/MSHR allocation first, in line order; misses walk
    // L2/DRAM after the instruction fetch.
    Cycle finish = now;
    pendingMisses_.clear();
    if (step.unit == isa::FuncUnit::VMEM) {
        for (std::uint32_t i = 0; i < step.numLines; ++i) {
            MemorySystem::VmemProbe p =
                memsys_.vectorProbe(cuId_, step.lines[i], now);
            if (p.hit)
                finish = std::max(finish, p.ready);
            else
                pendingMisses_.push_back(
                    {step.lines[i], p.missBase, p.mshrIdx});
        }
    }

    if (bb_end && ctx_.monitor)
        ctx_.monitor->onBbExecuted(warp, bb, bb_issue, now, bb_lanes);

    Cycle fetch_ready = now;
    if (do_fetch)
        fetch_ready = memsys_.instAccess(cuId_, fetch_line, now);

    Cycle complete;
    Cycle ready;
    switch (step.unit) {
      case isa::FuncUnit::SMEM:
        complete = memsys_.scalarAccess(cuId_, step.lines[0], now);
        ready = complete;
        break;
      case isa::FuncUnit::VMEM:
        for (const MemorySystem::VmemMiss &m : pendingMisses_)
            finish = std::max(finish, memsys_.vectorCommitMiss(cuId_, m));
        complete = finish;
        // Loads block the wavefront until data returns; stores retire
        // from the wavefront's perspective once issued.
        ready = step.linesWrite ? now + cfg_.vectorIssueCycles : finish;
        break;
      case isa::FuncUnit::LDS:
        // Charge one extra cycle per 16 lane-accesses (bank conflicts
        // beyond the 16-bank width are second order).
        complete = now + unitCompleteLat_[u] + step.ldsAccesses / 16;
        ready = complete;
        break;
      default:
        // SALU / BRANCH / VALU / VALU4 / SYNC: pure table latencies.
        complete = now + unitCompleteLat_[u];
        ready = complete;
        break;
    }

    waveReadyAt_[slot] = std::max(ready, fetch_ready);
    setSlotReady(slot, waveReadyAt_[slot]);

    if (ctx_.monitor)
        ctx_.monitor->onInstruction(warp, step, now, complete);

    if (step.barrier) {
        waveAtBarrier_[slot] = 1;
        setSlotReady(slot, kNoCycle);
        ++wg.barrierWaiting;
        if (wg.barrierWaiting == wg.wavesLeft)
            releaseBarrier(wg_slot, now);
    }

    if (step.done)
        retireWave(slot, now);
}

void
ComputeUnit::retireWave(std::uint32_t slot, Cycle now)
{
    Workgroup &wg = wgs_[waveWgSlot_[slot]];

    if (ctx_.monitor) {
        const func::WaveState &ws = waveState_[slot];
        if (waveBbValid_[slot] && !hooksReleased_) {
            ctx_.monitor->onBbExecuted(ws.warpId, waveCurBb_[slot],
                                       waveCurBbIssue_[slot], now,
                                       waveCurBbLanes_[slot]);
        }
        ctx_.monitor->onWaveRetired(ws.warpId, now, waveInstCount_[slot]);
    }

    waveActive_[slot] = 0;
    setSlotReady(slot, kNoCycle);
    --residentWaves_;
    ++wavesRetired_;
    --wg.wavesLeft;
    if (wg.wavesLeft == 0) {
        wg.active = false;
        --residentWgs_;
    } else if (wg.barrierWaiting > 0 &&
               wg.barrierWaiting == wg.wavesLeft) {
        // A retiring wavefront can complete a barrier for the others.
        releaseBarrier(waveWgSlot_[slot], now);
    }
}

void
ComputeUnit::releaseBarrier(std::uint32_t wgSlot, Cycle now)
{
    // Walk only this workgroup's wave slots (recorded at placement).
    // The wgSlot check guards slots retired here and reused by another
    // workgroup placed while this one was still resident.
    for (std::uint32_t slot : wgs_[wgSlot].slots) {
        if (waveActive_[slot] && waveWgSlot_[slot] == wgSlot &&
            waveAtBarrier_[slot]) {
            waveAtBarrier_[slot] = 0;
            waveReadyAt_[slot] = std::max(waveReadyAt_[slot], now + 1);
            setSlotReady(slot, waveReadyAt_[slot]);
        }
    }
    wgs_[wgSlot].barrierWaiting = 0;
}

void
ComputeUnit::recomputeHint()
{
    // max distributes over min, so min over slots of
    // max(slotReady, simdFree) equals min over SIMDs of
    // max(min slotReady, simdFree).
    Cycle next = kNoCycle;
    for (std::uint32_t s = 0; s < cfg_.simdsPerCu; ++s)
        next = std::min(next, std::max(simdMin_[s], simdFree_[s]));
    nextHint_ = next;
}

Cycle
ComputeUnit::nextEventAt() const
{
    Cycle next = kNoCycle;
    const std::uint32_t per_simd = cfg_.wavesPerSimd;
    for (std::uint32_t i = 0; i < slotReady_.size(); ++i) {
        Cycle r = slotReady_[i];
        if (r == kNoCycle)
            continue;
        Cycle t = std::max(r, simdFree_[i / per_simd]);
        next = std::min(next, t);
    }
    return next;
}

} // namespace photon::timing
