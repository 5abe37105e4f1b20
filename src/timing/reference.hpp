/**
 * @file
 * Reference timing engine: the frozen baseline the event-driven core is
 * benchmarked against and differentially tested with (DESIGN.md §13).
 *
 * This is a deliberately simple simulator: wavefront bookkeeping is an
 * array-of-structures (one aggregate Wave object per slot), arbitration
 * is a branchy oldest-warp scan over every slot, instruction latencies
 * come from a per-unit switch, and the run loop steps one cycle at a
 * time, scanning every resident CU each cycle — no calendar wheel, no
 * incremental next-event hints, no fused issue/commit fast path. It
 * models exactly the same machine as ComputeUnit/Gpu::runEventLoop and
 * must produce bit-identical outcomes (cycles, monitor callback stream,
 * memory-system access order, occupancy integrals); the golden-parity
 * tests pin that equivalence. Because it shares none of the event
 * core's scheduling structures, it stays a valid oracle and a stable
 * cost baseline: optimizations to the event core cannot leak into it.
 *
 * Engaged through RunOptions::useSeedLoop ("seed" = the seed-style
 * per-cycle scanning loop). EventCore.EventLoopMatchesSeedLoop holds the
 * event core bit-identical to this engine on synthetic and real kernels.
 */

#ifndef PHOTON_TIMING_REFERENCE_HPP
#define PHOTON_TIMING_REFERENCE_HPP

#include <cstdint>
#include <vector>

#include "func/emulator.hpp"
#include "func/wave_state.hpp"
#include "isa/basic_block.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"
#include "timing/cu.hpp"
#include "timing/gpu.hpp"
#include "timing/memsys.hpp"
#include "timing/monitor.hpp"

namespace photon::timing {

/**
 * Array-of-structures compute unit, serial-only. The aggregate Wave is
 * intentional here — this file is the AoS baseline the SoA hot path is
 * measured against — and is exempt from the aos-in-hot-path lint.
 */
// photon-lint: aos-ok
class ReferenceCu
{
  public:
    ReferenceCu(const GpuConfig &cfg, std::uint32_t cuId,
                MemorySystem &memsys, const func::Emulator &emu);

    void startKernel(const KernelContext &ctx);
    bool canAcceptWorkgroup() const;
    void placeWorkgroup(WorkgroupId wg, Cycle now);

    /** Let every SIMD try to issue one instruction at cycle @p now,
     *  committing inline (serial semantics). @return issues. */
    std::uint32_t tick(Cycle now);

    bool idle() const { return residentWaves_ == 0; }
    std::uint32_t residentWaves() const { return residentWaves_; }
    std::uint64_t instsIssued() const { return instsIssued_; }
    std::uint32_t wavesRetired() const { return wavesRetired_; }

  private:
    struct Wave
    {
        func::WaveState ws;
        Cycle readyAt = 0;
        bool active = false;
        bool atBarrier = false;
        std::uint64_t instCount = 0;
        std::uint32_t wgSlot = 0;
        std::uint64_t lastFetchLine = ~std::uint64_t{0};
        // Dynamic basic-block tracking (monitor-observable).
        bool bbValid = false;
        isa::BbId curBb = isa::kNoBb;
        Cycle curBbIssue = 0;
        std::uint32_t curBbLanes = 0;
    };

    struct Workgroup
    {
        WorkgroupId id = 0;
        std::uint32_t wavesLeft = 0;
        std::uint32_t barrierWaiting = 0;
        std::vector<std::uint8_t> lds;
        std::vector<std::uint32_t> slots;
        bool active = false;
    };

    /** Issue slot's wavefront at @p now: functional step, per-unit
     *  latency switch, memory-system walk, monitor callbacks, barrier
     *  and retirement bookkeeping — all inline, in the same shared-state
     *  order as the event core's ComputeUnit::issue. */
    void issueWave(std::uint32_t slot, Cycle now);
    void retireWave(std::uint32_t slot, Cycle now);
    void releaseBarrier(std::uint32_t wgSlot, Cycle now);

    const GpuConfig &cfg_;
    std::uint32_t cuId_;
    MemorySystem &memsys_;
    const func::Emulator &emu_;
    KernelContext ctx_;
    std::uint64_t codeLineBase_ = 0;

    std::vector<Wave> waves_;     ///< simdsPerCu * wavesPerSimd slots
    std::vector<Workgroup> wgs_;  ///< workgroupsPerCu slots
    std::vector<Cycle> simdFree_; ///< per-SIMD issue-port availability
    std::uint32_t residentWaves_ = 0;
    std::uint32_t residentWgs_ = 0;
    std::uint64_t instsIssued_ = 0;
    std::uint32_t wavesRetired_ = 0;

    func::StepResult step_; ///< reused per-issue functional result
    std::vector<MemorySystem::VmemMiss> misses_; ///< reused per issue
};

/**
 * Per-cycle scanning run loop over an own set of ReferenceCus, sharing
 * the Gpu's memory system, emulator and clock so seed and event runs of
 * the same platform see identical cache state. Replicates the
 * round-robin, workgroup-id-order dispatch policy and the event loop's
 * outcome accounting (occupancy integrals, IPC trace, early stop).
 */
class ReferenceEngine
{
  public:
    ReferenceEngine(const GpuConfig &cfg, MemorySystem &memsys,
                    const func::Emulator &emu);

    /** Run one kernel to completion (or drain after a monitor stop),
     *  advancing the shared clock @p now. Fills every RunOutcome field
     *  except endCycle (the caller stamps it from the clock). */
    RunOutcome run(const KernelContext &ctx, KernelMonitor *monitor,
                   const RunOptions &opts, Cycle &now);

  private:
    /** Place as many pending workgroups as capacity allows (forced
     *  rescan every cycle — the reference dispatch behaviour). */
    void tryDispatch(Cycle now);

    const GpuConfig &cfg_;
    std::vector<ReferenceCu> cus_;
    std::uint32_t numWgs_ = 0;
    std::uint32_t nextWg_ = 0;
    std::size_t rr_ = 0;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_REFERENCE_HPP
