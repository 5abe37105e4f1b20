/**
 * @file
 * Compute unit (CU) timing model: 4 SIMD units, wavefront slots, in-order
 * per-wavefront issue with round-robin arbitration, blocking vector memory
 * (latency hidden by switching among resident wavefronts), workgroup
 * barriers and an instruction-fetch path through the L1I.
 *
 * Two issue paths share one arbitration and one latency model: tick()
 * runs the monitored issue (basic-block tracking and KernelMonitor
 * callbacks for the sampling control plane), tickFast() the fused
 * monitor-free issue of full-detail runs and of monitored runs whose
 * monitor released its hooks (releaseHooks()). Both touch the memory
 * system in the same order, so they produce identical schedules.
 *
 * Neither path executes register semantics for a traceable program:
 * each wave slot steps a WarpReplayCursor, either over the launch's
 * captured trace or over a one-warp trace captured into the slot's
 * buffer when the warp is placed (dispatch-time capture). Only programs
 * with LDS ops, which traces cannot record, still run Emulator::step
 * inside the issue.
 *
 * Data layout (DESIGN.md §13): wavefront bookkeeping is
 * structure-of-arrays. The scheduling-hot lanes — ready cycle and warp
 * age key — are stored SIMD-major (one SIMD's wave slots contiguous,
 * see readyIndex) so arbitration walks a few cache lines instead of
 * chasing ~300-byte wave objects. Cold per-wave state (architectural
 * registers, fetch/bb tracking, barrier flags) lives in parallel
 * slot-indexed arrays touched only on issue or rare events. photon_lint
 * flags any reintroduction of an aggregate-wave vector here
 * (aos-in-hot-path).
 */
// photon-lint: soa-hot-path

#ifndef PHOTON_TIMING_CU_HPP
#define PHOTON_TIMING_CU_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "func/emulator.hpp"
#include "func/warp_trace.hpp"
#include "func/wave_state.hpp"
#include "isa/basic_block.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "timing/memsys.hpp"
#include "timing/monitor.hpp"

namespace photon::timing {

/** Everything shared by all CUs for one kernel launch. */
struct KernelContext
{
    const isa::Program *program = nullptr;
    const isa::BasicBlockTable *bbTable = nullptr;
    const func::LaunchDims *dims = nullptr;
    func::GlobalMemory *mem = nullptr;
    KernelMonitor *monitor = nullptr; ///< may be null
    /** When non-null, wave slots step through this captured functional
     *  trace (func/warp_trace.hpp) instead of the emulator: identical
     *  StepResult stream and pc/exec evolution, no register semantics
     *  and no memory reads/writes (the launch applies the trace's
     *  store log up front). */
    const func::LaunchTrace *replay = nullptr;
    /** When non-null (and replay is null), each warp is captured through
     *  this capturer as it is placed — emulated to completion, its
     *  stores landing in mem — into its slot's trace buffer, and the
     *  slot then replays that buffer. Per-warp functional semantics do
     *  not depend on cross-wave order, so the StepResult stream and the
     *  final memory equal inline emulation's. */
    func::WarpCapturer *capture = nullptr;
    /** Virtual base address of the kernel's code (for L1I tags). */
    Addr codeBase = 1ull << 40;
};

/** One GCN-style compute unit. */
class ComputeUnit
{
  public:
    ComputeUnit(const GpuConfig &cfg, std::uint32_t cuId,
                MemorySystem &memsys, const func::Emulator &emu);

    /** Reset per-kernel state and bind the launch context. */
    void startKernel(const KernelContext &ctx);

    /** True when a workgroup of the bound kernel fits right now. */
    bool canAcceptWorkgroup() const;

    /** Place workgroup @p wg; requires canAcceptWorkgroup(). */
    void placeWorkgroup(WorkgroupId wg, Cycle now);

    /** The monitor let go of its hooks (KernelMonitor::wantsRelease)
     *  for the rest of the kernel: from here on the CU is driven by
     *  tickFast() and reports only wave retirements to the monitor. */
    void releaseHooks() { hooksReleased_ = true; }

    /** What one tick did, so the event loop can update its
     *  bookkeeping without re-reading the (cold) CU object. */
    struct TickSummary
    {
        std::uint32_t issued = 0;
        std::uint32_t retired = 0; ///< waves retired by this tick
        Cycle hint = kNoCycle;     ///< nextHint() after the tick
    };

    /**
     * Let every SIMD try to issue one instruction at cycle @p now
     * through the monitored issue path.
     */
    TickSummary tick(Cycle now);

    /**
     * Tick for monitor-free runs: identical arbitration and timing to
     * tick(), with the monitor hooks and basic-block tracking compiled
     * out. This is the event-driven core's hot path. Requires a
     * monitor-free kernel context or released hooks; a released
     * monitor still sees onWaveRetired.
     */
    TickSummary tickFast(Cycle now);

    /** Earliest cycle at which any resident wavefront can issue;
     *  kNoCycle when the CU is empty or fully barrier-blocked. Exact,
     *  but O(wave slots) — the seed loop's rescan path. */
    Cycle nextEventAt() const;

    /** Cheap lower bound on nextEventAt(), maintained incrementally from
     *  per-SIMD ready minima. Never later than the true next event, so
     *  waking the CU at the hint can be spurious (a side-effect-free
     *  zero-issue tick that refines the hint) but never misses work. */
    Cycle nextHint() const { return nextHint_; }
    void refreshHint() { nextHint_ = nextEventAt(); }

    /** No resident wavefronts. */
    bool idle() const { return residentWaves_ == 0; }

    std::uint32_t residentWaves() const { return residentWaves_; }
    std::uint64_t instsIssued() const { return instsIssued_; }
    std::uint32_t wavesRetired() const { return wavesRetired_; }

  private:
    struct Workgroup
    {
        WorkgroupId id = 0;
        std::uint32_t wavesLeft = 0;
        std::uint32_t barrierWaiting = 0;
        std::vector<std::uint8_t> lds;
        /** Wave slots assigned at placement, so a barrier release walks
         *  only this workgroup's waves instead of the whole CU. */
        std::vector<std::uint32_t> slots;
        bool active = false;
    };

    /** Monitored issue of @p slot's wavefront at @p now: basic-block
     *  tracking, functional step, L1V probes, onBbExecuted, L1I fetch,
     *  L1K / L2 walks, onInstruction, then barrier and retirement
     *  bookkeeping — in that order. */
    void issue(std::uint32_t slot, Cycle now);

    /** issue() minus the per-instruction monitor hooks and bb
     *  tracking, with the same shared-memory access order. @p ri is the
     *  slot's SIMD-major lane index, already in hand from arbitration. */
    void issueFast(std::uint32_t slot, std::uint32_t ri,
                   std::uint32_t simd, Cycle now);

    void retireWave(std::uint32_t slot, Cycle now);
    void releaseBarrier(std::uint32_t wgSlot, Cycle now);

    /** Update a slot's scheduling key, folding it into the owning
     *  SIMD's ready minimum (lower bound maintenance). */
    void
    setSlotReady(std::uint32_t slot, Cycle t)
    {
        slotReady_[slotRi_[slot]] = t;
        std::uint32_t s = slotSimd_[slot];
        if (t < simdMin_[s])
            simdMin_[s] = t;
    }

    /** setSlotReady when the caller already has the lane index and
     *  SIMD (the fast tick derives both from the arbitration result,
     *  skipping even the table loads). */
    void
    setSlotReadyAt(std::uint32_t ri, std::uint32_t simd, Cycle t)
    {
        slotReady_[ri] = t;
        if (t < simdMin_[simd])
            simdMin_[simd] = t;
    }

    /**
     * Branchless arbitration over one SIMD's contiguous ready lane:
     * build the issue mask of slots ready at @p now with compare-only
     * passes, walk its set bits (countr_zero, mirroring the calendar
     * wheel in gpu.cpp) to select the oldest wavefront, and return the
     * minimum ready cycle over the *other* slots through @p min_excl —
     * the SIMD's refreshed hint contribution (the winner's new ready
     * cycle is folded back in when its issue lands). Returns the
     * per-SIMD slot index of the winner, or per_simd when nothing is
     * ready (min_excl then covers every slot).
     */
    std::uint32_t
    arbitrate(const Cycle *ready, const std::uint32_t *warp, Cycle now,
              Cycle &min_excl)
    {
        const std::uint32_t per_simd = cfg_.wavesPerSimd;
        // One compare-only pass builds the issue mask and the all-slots
        // minimum together (no data-dependent branches to mispredict on
        // irregular ready patterns).
        std::uint64_t mask = 0;
        Cycle mn = kNoCycle;
        for (std::uint32_t k = 0; k < per_simd; ++k) {
            Cycle r = ready[k];
            mask |= std::uint64_t{r <= now} << k;
            mn = mn < r ? mn : r;
        }
        if (mask == 0) {
            min_excl = mn;
            return per_simd;
        }
        std::uint32_t best =
            static_cast<std::uint32_t>(std::countr_zero(mask));
        std::uint64_t rest = mask & (mask - 1);
        if (rest == 0) {
            // Sole ready slot: the bound must exclude it, so rescan
            // with the winner masked out (the only case where the
            // all-slots minimum is not a usable bound).
            Cycle mx = kNoCycle;
            for (std::uint32_t k = 0; k < per_simd; ++k) {
                Cycle r = k == best ? kNoCycle : ready[k];
                mx = mx < r ? mx : r;
            }
            min_excl = mx;
            return best;
        }
        // Several ready slots: every loser keeps a ready cycle <= now,
        // so the all-slots minimum is an equally tight lower bound (the
        // hint is dominated by the issue port's busy-until either way)
        // and no exclusion pass is needed. Walk only the set bits
        // (countr_zero, as the calendar wheel does) for the oldest
        // wavefront; warp ids are unique so there are no ties.
        std::uint32_t best_warp = warp[best];
        do {
            std::uint32_t k =
                static_cast<std::uint32_t>(std::countr_zero(rest));
            bool lt = warp[k] < best_warp;
            best = lt ? k : best;
            best_warp = lt ? warp[k] : best_warp;
            rest &= rest - 1;
        } while (rest);
        min_excl = mn;
        return best;
    }

    /** Recompute nextHint_ from the per-SIMD minima (O(simds)). */
    void recomputeHint();

    const GpuConfig &cfg_;
    std::uint32_t cuId_;
    MemorySystem &memsys_;
    const func::Emulator &emu_;
    KernelContext ctx_;
    /** ctx_.codeBase / kLineBytes, so the per-issue fetch-line check is
     *  one add and shift instead of a 64-bit multiply and divide. */
    std::uint64_t codeLineBase_ = 0;

    // ---- Scheduling-hot lanes, SIMD-major (see readyIndex) ----------
    /** Compact per-slot scheduling key: the cycle the slot's wavefront
     *  can next issue, or kNoCycle when empty / at a barrier. */
    std::vector<Cycle> slotReady_;
    /** Arbitration age key: the slot's warp id (stable for the wave's
     *  lifetime; slots excluded from the issue mask never read it). */
    std::vector<std::uint32_t> slotWarp_;

    /** Index of slot's entry in the SIMD-major lanes. Table lookup:
     *  the modulo/divide pair costs two runtime integer divisions per
     *  use (the divisors are config values, invisible to the
     *  compiler), which is real money at one-per-issue rates. */
    std::uint32_t readyIndex(std::uint32_t slot) const
    {
        return slotRi_[slot];
    }

    /** slot -> owning SIMD (slot % simdsPerCu precomputed). */
    std::vector<std::uint32_t> slotSimd_;
    /** slot -> SIMD-major lane index (see readyIndex). */
    std::vector<std::uint32_t> slotRi_;

    // ---- Cold per-wave state, slot-indexed --------------------------
    // Deliberately parallel arrays, not a vector of wave aggregates:
    // each is touched by exactly one concern (issue, barrier, retire,
    // monitor bb tracking), so the hot concerns never drag the cold
    // bytes through the cache.
    /** Architectural registers/pc, touched only on issue. */
    std::vector<func::WaveState> waveState_; // photon-lint: aos-ok
    std::vector<Cycle> waveReadyAt_;
    std::vector<std::uint8_t> waveActive_;
    std::vector<std::uint8_t> waveAtBarrier_;
    std::vector<std::uint64_t> waveInstCount_;
    std::vector<std::uint32_t> waveWgSlot_;
    /** Trace-replay cursor per slot, bound at placement when the kernel
     *  context carries a replay trace; touched only on issue, exactly
     *  like waveState_. */
    std::vector<func::WarpReplayCursor> waveCursor_; // photon-lint: aos-ok
    /** Per-slot one-warp trace buffer filled by dispatch-time capture
     *  (allocated at the first such kernel); reused across the slot's
     *  warps, so its arenas keep capacity. */
    std::vector<func::LaunchTrace> slotTrace_; // photon-lint: aos-ok
    std::vector<std::uint64_t> waveLastFetchLine_;
    // Dynamic basic-block tracking (monitor-observable only).
    std::vector<std::uint8_t> waveBbValid_;
    std::vector<isa::BbId> waveCurBb_;
    std::vector<Cycle> waveCurBbIssue_;
    std::vector<std::uint32_t> waveCurBbLanes_;

    /** workgroupsPerCu slots, read on place/retire only. */
    std::vector<Workgroup> wgs_; // photon-lint: aos-ok
    std::vector<Cycle> simdFree_;    ///< per-SIMD issue-port availability
    /** Per-SIMD lower bound on the minimum active slotReady_. Made exact
     *  whenever the SIMD arbitrates; only ever folded downward in
     *  between, so the derived hint can be early but never late. */
    std::vector<Cycle> simdMin_;
    /** Per-unit completion latency (cycles past issue) and issue-port
     *  occupancy, precomputed from the config so the per-issue latency
     *  selection is two table loads instead of a unit switch. VMEM and
     *  SMEM run their own memory paths; LDS adds its access term. */
    std::array<Cycle, 8> unitCompleteLat_{};
    std::array<Cycle, 8> unitIssueLat_{};
    Cycle nextHint_ = kNoCycle;
    /** Wave slots step their replay cursors (ctx_.replay or
     *  ctx_.capture set) instead of the emulator. */
    bool replayed_ = false;
    /** See releaseHooks(); reset at every kernel start. */
    bool hooksReleased_ = false;
    std::uint32_t residentWaves_ = 0;
    std::uint32_t residentWgs_ = 0;
    std::uint64_t instsIssued_ = 0;
    std::uint32_t wavesRetired_ = 0;

    /** L1V misses of the issuing instruction, walked through L2 after
     *  the instruction fetch — a per-issue queue, not a scan lane. */
    std::vector<MemorySystem::VmemMiss> pendingMisses_; // photon-lint: aos-ok
    func::StepResult step_; ///< reused functional-step result
};

} // namespace photon::timing

#endif // PHOTON_TIMING_CU_HPP
