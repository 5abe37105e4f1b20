/**
 * @file
 * Compute unit (CU) timing model: 4 SIMD units, wavefront slots, in-order
 * per-wavefront issue with round-robin arbitration, blocking vector memory
 * (latency hidden by switching among resident wavefronts), workgroup
 * barriers and an instruction-fetch path through the L1I.
 *
 * One issue body, templated on whether monitor hooks are attached:
 * the hooked instantiation adds basic-block tracking and the
 * KernelMonitor callbacks the sampling control plane needs, the
 * hook-free one serves full-detail runs and monitored runs whose
 * monitor released its hooks (releaseHooks()). Both touch the memory
 * system in the same order, so they produce identical schedules.
 *
 * No issue executes register semantics: each wave slot steps a
 * WarpReplayCursor, either over the launch's captured trace or over
 * its workgroup's trace captured into the workgroup slot's buffer when
 * the workgroup is placed (dispatch-time capture, func/warp_trace.hpp).
 *
 * Data layout (DESIGN.md §13): wavefront bookkeeping is
 * structure-of-arrays. The scheduling-hot lanes — ready cycle and warp
 * age key — are stored SIMD-major (one SIMD's wave slots contiguous,
 * see laneOf()) so arbitration walks a few cache lines instead of
 * chasing ~300-byte wave objects. The geometry is the compile-time
 * kSimdsPerCu x kWavesPerSimd, so every per-SIMD loop has a fixed trip
 * count. Cold per-wave state (pc and EXEC, replay cursors, fetch/bb
 * tracking, barrier flags) lives in parallel slot-indexed arrays
 * touched only on issue or rare events.
 */

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
     *  trace (func/warp_trace.hpp): the StepResult stream and pc/exec
     *  evolution of emulation, no register semantics and no memory
     *  reads/writes (the launch applies the trace's store log up
     *  front). When null, each workgroup is captured as it is placed —
     *  emulated to completion, its stores landing in mem — and its
     *  waves replay that. Functional semantics do not depend on
     *  cross-workgroup order, so the StepResult stream and the final
     *  memory equal inline emulation's. */
    const func::LaunchTrace *replay = nullptr;
    /** Virtual base address of the kernel's code (for L1I tags). */
    Addr codeBase = 1ull << 40;
};

/** One GCN-style compute unit. */
class ComputeUnit
{
  public:
    /** @p capturer serves dispatch-time capture; the core is serial,
     *  so one capturer can serve every CU. */
    ComputeUnit(const GpuConfig &cfg, std::uint32_t cuId,
                MemorySystem &memsys, func::WarpCapturer &capturer);

    /** Reset per-kernel state and bind the launch context. */
    void startKernel(const KernelContext &ctx);

    /** True when a workgroup of the bound kernel fits right now. */
    bool canAcceptWorkgroup() const;

    /** Place workgroup @p wg; requires canAcceptWorkgroup(). */
    void placeWorkgroup(WorkgroupId wg, Cycle now);

    /** The monitor let go of its hooks (KernelMonitor::wantsRelease)
     *  for the rest of the kernel: from here on the CU issues through
     *  the hook-free body and reports only wave retirements to the
     *  monitor. */
    void releaseHooks() { hooked_ = false; }

    /** What one tick did, so the event loop can update its
     *  bookkeeping without re-reading the (cold) CU object. */
    struct TickSummary
    {
        std::uint32_t issued = 0;
        std::uint32_t retired = 0; ///< waves retired by this tick
        Cycle hint = kNoCycle;     ///< nextHint() after the tick
    };

    /**
     * Let every SIMD try to issue one instruction at cycle @p now:
     * through the hooked issue while a monitor holds its hooks, the
     * hook-free one otherwise (same arbitration and timing). This is
     * the event-driven core's hot path.
     */
    TickSummary tick(Cycle now);

    /** Cheap lower bound on the earliest cycle any resident wavefront
     *  can issue (kNoCycle when the CU is empty or fully
     *  barrier-blocked), maintained incrementally from per-SIMD ready
     *  minima. Never later than the true next event, so waking the CU
     *  at the hint can be spurious (a side-effect-free zero-issue tick
     *  that refines the hint) but never misses work. */
    Cycle nextHint() const { return nextHint_; }

    /** No resident wavefronts. */
    bool idle() const { return residentWaves_ == 0; }

    std::uint64_t instsIssued() const { return instsIssued_; }
    std::uint32_t wavesRetired() const { return wavesRetired_; }

  private:
    struct Workgroup
    {
        std::uint32_t wavesLeft = 0;
        std::uint32_t barrierWaiting = 0;
        /** Wave slots assigned at placement, so a barrier release walks
         *  only this workgroup's waves instead of the whole CU. */
        std::vector<std::uint32_t> slots;
        /** Dispatch-time capture of this workgroup (slice i = wave
         *  i); later workgroups in the slot reuse its capacity. */
        func::LaunchTrace trace;
        bool active = false;
    };

    template <bool kHooks> TickSummary tickImpl(Cycle now);

    /** Issue @p slot's wavefront at @p now: basic-block tracking
     *  (hooked only), replay step, L1V probes, onBbExecuted (hooked),
     *  L1I fetch, L1K / L2 walks, onInstruction (hooked), then barrier
     *  and retirement bookkeeping — in that order. @p ri and @p simd
     *  are the slot's SIMD-major lane index and SIMD, already in hand
     *  from arbitration. */
    template <bool kHooks>
    void issue(std::uint32_t slot, std::uint32_t ri, std::uint32_t simd,
               Cycle now);

    void retireWave(std::uint32_t slot, Cycle now);
    void releaseBarrier(std::uint32_t wgSlot, Cycle now);

    /** Update a slot's scheduling key, folding it into the owning
     *  SIMD's ready minimum (lower bound maintenance). */
    void
    setSlotReady(std::uint32_t slot, Cycle t)
    {
        setSlotReadyAt(laneOf(slot), slot % kSimdsPerCu, t);
    }

    /** Slot -> index of its entry in the SIMD-major lanes: slots are
     *  interleaved across SIMDs (slot % kSimdsPerCu owns it), lanes
     *  hold one SIMD's kWavesPerSimd slots contiguously. */
    static std::uint32_t
    laneOf(std::uint32_t slot)
    {
        return slot % kSimdsPerCu * kWavesPerSimd + slot / kSimdsPerCu;
    }

    /** setSlotReady when the caller already has the lane index and
     *  SIMD (the tick derives both from the arbitration result). */
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
     * passes of fixed width kWavesPerSimd (unrolled by the compiler),
     * walk its set bits (countr_zero, mirroring the calendar wheel in
     * gpu.cpp) to select the oldest wavefront, and return the minimum
     * ready cycle over the *other* slots through @p min_excl — the
     * SIMD's refreshed hint contribution (the winner's new ready cycle
     * is folded back in when its issue lands). Returns the per-SIMD
     * slot index of the winner, or kWavesPerSimd when nothing is ready
     * (min_excl then covers every slot).
     */
    static std::uint32_t
    arbitrate(const Cycle *ready, const std::uint32_t *warp, Cycle now,
              Cycle &min_excl)
    {
        static_assert(kWavesPerSimd <= 64,
                      "issue mask is one 64-bit word per SIMD");
        // One compare-only pass builds the issue mask and the all-slots
        // minimum together.
        std::uint64_t mask = 0;
        Cycle mn = kNoCycle;
        for (std::uint32_t k = 0; k < kWavesPerSimd; ++k) {
            Cycle r = ready[k];
            mask |= std::uint64_t{r <= now} << k;
            mn = mn < r ? mn : r;
        }
        if (mask == 0) {
            min_excl = mn;
            return kWavesPerSimd;
        }
        std::uint32_t best =
            static_cast<std::uint32_t>(std::countr_zero(mask));
        std::uint64_t rest = mask & (mask - 1);
        if (rest == 0) {
            // Sole ready slot: the bound must exclude it, so rescan
            // with the winner masked out (the only case where the
            // all-slots minimum is not a usable bound).
            Cycle mx = kNoCycle;
            for (std::uint32_t k = 0; k < kWavesPerSimd; ++k) {
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

    /** Recompute nextHint_ from the per-SIMD minima (kSimdsPerCu
     *  compares). */
    void recomputeHint();

    const GpuConfig &cfg_;
    std::uint32_t cuId_;
    MemorySystem &memsys_;
    func::WarpCapturer &capturer_;
    KernelContext ctx_;
    /** ctx_.codeBase / kLineBytes, so the per-issue fetch-line check is
     *  one add and shift instead of a 64-bit multiply and divide. */
    std::uint64_t codeLineBase_ = 0;

    // ---- Scheduling-hot lanes, SIMD-major (see laneOf) --------------
    /** Compact per-slot scheduling key: the cycle the slot's wavefront
     *  can next issue, or kNoCycle when empty / at a barrier. */
    std::vector<Cycle> slotReady_;
    /** Arbitration age key: the slot's warp id (stable for the wave's
     *  lifetime; slots excluded from the issue mask never read it). */
    std::vector<std::uint32_t> slotWarp_;

    // ---- Cold per-wave state, slot-indexed --------------------------
    // Deliberately parallel arrays, not a vector of wave aggregates:
    // each is touched by exactly one concern (issue, barrier, retire,
    // monitor bb tracking), so the hot concerns never drag the cold
    // bytes through the cache.
    /** pc/EXEC/done as the replay cursor advances them (registers stay
     *  unset), touched only on issue. */
    std::vector<func::WaveState> waveState_;
    std::vector<Cycle> waveReadyAt_;
    std::vector<std::uint8_t> waveActive_;
    std::vector<std::uint8_t> waveAtBarrier_;
    std::vector<std::uint64_t> waveInstCount_;
    std::vector<std::uint32_t> waveWgSlot_;
    /** Trace-replay cursor per slot, bound at placement; touched only
     *  on issue, exactly like waveState_. */
    std::vector<func::WarpReplayCursor> waveCursor_;
    std::vector<std::uint64_t> waveLastFetchLine_;
    // Dynamic basic-block tracking (monitor-observable only).
    std::vector<std::uint8_t> waveBbValid_;
    std::vector<isa::BbId> waveCurBb_;
    std::vector<Cycle> waveCurBbIssue_;
    std::vector<std::uint32_t> waveCurBbLanes_;

    /** workgroupsPerCu slots, read on place/retire only. */
    std::vector<Workgroup> wgs_;
    std::array<Cycle, kSimdsPerCu> simdFree_{}; ///< issue-port availability
    /** Per-SIMD lower bound on the minimum active slotReady_. Made exact
     *  whenever the SIMD arbitrates; only ever folded downward in
     *  between, so the derived hint can be early but never late. */
    std::array<Cycle, kSimdsPerCu> simdMin_{};
    /** Per-unit completion latency (cycles past issue) and issue-port
     *  occupancy, precomputed from the config so the per-issue latency
     *  selection is two table loads instead of a unit switch. VMEM and
     *  SMEM run their own memory paths; LDS adds its access term. */
    std::array<Cycle, 8> unitCompleteLat_{};
    std::array<Cycle, 8> unitIssueLat_{};
    Cycle nextHint_ = kNoCycle;
    /** A monitor is bound and holds its hooks: tick() takes the hooked
     *  issue. Set at kernel start, cleared by releaseHooks(). */
    bool hooked_ = false;
    std::uint32_t residentWaves_ = 0;
    std::uint32_t residentWgs_ = 0;
    std::uint64_t instsIssued_ = 0;
    std::uint32_t wavesRetired_ = 0;

    /** L1V misses of the issuing instruction, walked through L2 after
     *  the instruction fetch — a per-issue queue, not a scan lane. */
    std::vector<MemorySystem::VmemMiss> pendingMisses_;
    func::StepResult step_; ///< reused functional-step result
};

} // namespace photon::timing

#endif // PHOTON_TIMING_CU_HPP
