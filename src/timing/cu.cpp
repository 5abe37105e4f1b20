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
                         MemorySystem &memsys, func::WarpCapturer &capturer)
    : cfg_(cfg), cuId_(cuId), memsys_(memsys), capturer_(capturer)
{
    const std::uint32_t slots = kSimdsPerCu * kWavesPerSimd;
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
    simdMin_.fill(kNoCycle);

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
    hooked_ = ctx.monitor != nullptr;
    std::fill(waveActive_.begin(), waveActive_.end(), 0);
    std::fill(slotReady_.begin(), slotReady_.end(), kNoCycle);
    for (Workgroup &wg : wgs_) {
        wg.active = false;
    }
    simdFree_.fill(0);
    simdMin_.fill(kNoCycle);
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
    group.wavesLeft = ctx_.dims->wavesPerWorkgroup;
    group.barrierWaiting = 0;
    group.slots.clear();
    ++residentWgs_;
    if (!ctx_.replay)
        capturer_.captureAlone(*ctx_.program, *ctx_.dims, *ctx_.mem, wg,
                               group.trace);

    std::uint32_t wave_slot = 0;
    for (std::uint32_t i = 0; i < ctx_.dims->wavesPerWorkgroup; ++i) {
        while (waveActive_[wave_slot])
            ++wave_slot;
        func::WaveState &ws = waveState_[wave_slot];
        WarpId warp = wg * ctx_.dims->wavesPerWorkgroup + i;
        ws.initControl(*ctx_.dims, warp);
        waveActive_[wave_slot] = 1;
        waveAtBarrier_[wave_slot] = 0;
        waveReadyAt_[wave_slot] = now + 4; // dispatch latency
        waveInstCount_[wave_slot] = 0;
        waveWgSlot_[wave_slot] = wg_slot;
        waveLastFetchLine_[wave_slot] = ~std::uint64_t{0};
        waveBbValid_[wave_slot] = 0;
        if (ctx_.replay)
            waveCursor_[wave_slot].bind(ctx_.replay, warp);
        else
            waveCursor_[wave_slot].bind(&group.trace, i);
        slotWarp_[laneOf(wave_slot)] = warp;
        group.slots.push_back(wave_slot);
        setSlotReady(wave_slot, waveReadyAt_[wave_slot]);
        ++residentWaves_;
        if (hooked_)
            ctx_.monitor->onWaveDispatched(warp, now);
    }
    recomputeHint();
}

ComputeUnit::TickSummary
ComputeUnit::tick(Cycle now)
{
    return hooked_ ? tickImpl<true>(now) : tickImpl<false>(now);
}

template <bool kHooks>
ComputeUnit::TickSummary
ComputeUnit::tickImpl(Cycle now)
{
    TickSummary out;
    if (residentWaves_ == 0) {
        out.hint = nextHint_;
        return out;
    }
    const std::uint32_t before = wavesRetired_;

    // Eligibility mask: SIMD s may issue when its port is free and its
    // ready lower bound has come due (a SIMD whose simdMin_ is above
    // now would scan empty and refine nothing). Building the mask up
    // front is exact: an issue on one SIMD never writes another SIMD's
    // simdFree_, and can lower another SIMD's simdMin_ only to a value
    // above now (a barrier release files now + 1), so no SIMD gains or
    // loses eligibility during the walk.
    std::uint32_t eligible = 0;
    for (std::uint32_t s = 0; s < kSimdsPerCu; ++s) {
        const bool due = std::max(simdFree_[s], simdMin_[s]) <= now;
        eligible |= std::uint32_t{due} << s;
    }
    while (eligible != 0) {
        const std::uint32_t s =
            static_cast<std::uint32_t>(std::countr_zero(eligible));
        eligible &= eligible - 1;
        // Age-prioritised arbitration (GCN issues the oldest ready
        // wavefront): staggers wavefront completion instead of keeping
        // all residents phase-locked. The same pass computes the exact
        // minimum of the non-selected slots' ready cycles, refreshing
        // this SIMD's contribution to the incremental hint; the
        // winner's new ready cycle is folded back in by its issue.
        const std::uint32_t base = s * kWavesPerSimd;
        Cycle min_excl = kNoCycle;
        std::uint32_t best = arbitrate(&slotReady_[base], &slotWarp_[base],
                                       now, min_excl);
        simdMin_[s] = min_excl;
        if (best != kWavesPerSimd) {
            issue<kHooks>(s + best * kSimdsPerCu, base + best, s, now);
            ++out.issued;
        }
    }
    recomputeHint();
    out.retired = wavesRetired_ - before;
    out.hint = nextHint_;
    return out;
}

template <bool kHooks>
void
ComputeUnit::issue(std::uint32_t slot, std::uint32_t ri,
                   std::uint32_t simd, Cycle now)
{
    func::WaveState &ws = waveState_[slot];
    const std::uint32_t wg_slot = waveWgSlot_[slot];
    Workgroup &wg = wgs_[wg_slot];
    const std::uint32_t pc_before = ws.pc;

    // Dynamic basic-block boundary: issuing the first instruction of a
    // block ends the previous one (paper Observation 3 definition).
    bool bb_end = false;
    isa::BbId bb = isa::kNoBb;
    Cycle bb_issue = 0;
    std::uint32_t bb_lanes = 0;
    if constexpr (kHooks) {
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
    }

    // Instruction fetch through the L1I: one access per line crossed.
    std::uint64_t fetch_line = codeLineBase_ + pc_before / kPcsPerLine;
    const bool do_fetch = fetch_line != waveLastFetchLine_[slot];
    waveLastFetchLine_[slot] = fetch_line;

    func::StepResult &step = step_;
    waveCursor_[slot].step(*ctx_.program, ws, step);
    // Per-wave issue counts are observable only through a monitor's
    // onWaveRetired.
    if (kHooks || ctx_.monitor)
        ++waveInstCount_[slot];
    ++instsIssued_;

    const std::size_t u = static_cast<std::size_t>(step.unit);
    simdFree_[simd] = now + unitIssueLat_[u];

    // L1V port/tags/MSHR allocation first, in line order; misses walk
    // L2/DRAM after the instruction fetch.
    Cycle finish = now;
    if (step.unit == isa::FuncUnit::VMEM) {
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
    }

    if constexpr (kHooks) {
        if (bb_end)
            ctx_.monitor->onBbExecuted(ws.warpId, bb, bb_issue, now,
                                       bb_lanes);
    }

    Cycle fetch_ready = now;
    if (do_fetch)
        fetch_ready = memsys_.instAccess(cuId_, fetch_line, now);

    Cycle complete;
    switch (step.unit) {
      case isa::FuncUnit::SMEM:
        complete = memsys_.scalarAccess(cuId_, step.lines[0], now);
        break;
      case isa::FuncUnit::VMEM:
        for (const MemorySystem::VmemMiss &m : pendingMisses_)
            finish = std::max(finish, memsys_.vectorCommitMiss(cuId_, m));
        complete = finish;
        break;
      case isa::FuncUnit::LDS:
        // Charge one extra cycle per 16 lane-accesses (bank conflicts
        // beyond the 16-bank width are second order).
        complete = now + unitCompleteLat_[u] + step.ldsAccesses / 16;
        break;
      default:
        // SALU / BRANCH / VALU / VALU4 / SYNC: pure table latencies.
        complete = now + unitCompleteLat_[u];
        break;
    }
    // Loads block the wavefront until data returns; stores retire from
    // the wavefront's perspective once issued.
    Cycle ready = step.linesWrite ? now + cfg_.vectorIssueCycles : complete;
    ready = std::max(ready, fetch_ready);
    waveReadyAt_[slot] = ready;
    setSlotReadyAt(ri, simd, ready);

    if constexpr (kHooks)
        ctx_.monitor->onInstruction(ws.warpId, step, now, complete);

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
ComputeUnit::retireWave(std::uint32_t slot, Cycle now)
{
    Workgroup &wg = wgs_[waveWgSlot_[slot]];

    if (ctx_.monitor) {
        const func::WaveState &ws = waveState_[slot];
        if (waveBbValid_[slot] && hooked_) {
            ctx_.monitor->onBbExecuted(ws.warpId, waveCurBb_[slot],
                                       waveCurBbIssue_[slot], now,
                                       waveCurBbLanes_[slot]);
        }
        ctx_.monitor->onWaveRetired(ws.warpId, now, waveInstCount_[slot]);
    }

    waveActive_[slot] = 0;
    setSlotReady(slot, kNoCycle);
    if (--residentWaves_ == 0) {
        // An empty CU has no next event: drop the per-SIMD minima that
        // only ever fold downward, or the stale hint would wake the CU
        // every cycle until its next placement.
        simdMin_.fill(kNoCycle);
        nextHint_ = kNoCycle;
    }
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
    // max(min slotReady, simdFree). Selects on values, not
    // std::min/std::max: those return references, and choosing between
    // two addresses compiled to branches on the data.
    Cycle next = kNoCycle;
    for (std::uint32_t s = 0; s < kSimdsPerCu; ++s) {
        Cycle due = simdMin_[s] > simdFree_[s] ? simdMin_[s] : simdFree_[s];
        next = due < next ? due : next;
    }
    nextHint_ = next;
}

} // namespace photon::timing
