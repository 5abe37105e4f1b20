/**
 * @file
 * Top-level GPU timing model: owns the CUs and the memory hierarchy and
 * runs kernels in detailed (execution-driven) mode, with optional monitor
 * hooks and early-stop for sampled simulation.
 *
 * The run loop is event-driven and serial: CUs are filed in a min-heap
 * keyed by their next-event cycle and only ticked when due, instead of
 * being scanned every cycle. Each CU's one tick issues through its
 * hooked body while a monitor holds its hooks (the sampling control
 * plane) and through the hook-free body otherwise, including after the
 * monitor releases them (KernelMonitor::wantsRelease). Every launch
 * replays per-warp traces — the caller's launch trace, or one captured
 * per workgroup at dispatch — so no instruction is emulated inside the
 * issue.
 * A self-contained AoS per-cycle scanning engine
 * (timing/reference.hpp) is kept behind useSeedLoop as the frozen
 * reference implementation for cross-checks and as the bench baseline.
 */

#ifndef PHOTON_TIMING_GPU_HPP
#define PHOTON_TIMING_GPU_HPP

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "func/memory.hpp"
#include "func/warp_trace.hpp"
#include "isa/program.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "timing/cu.hpp"
#include "timing/dispatcher.hpp"
#include "timing/memsys.hpp"
#include "timing/monitor.hpp"

namespace photon::timing {

class ReferenceEngine;

/** Options for one detailed kernel run. */
struct RunOptions
{
    bool collectIpcTrace = false;
    Cycle ipcBucketCycles = 1024;
    /** Delimit monitored basic blocks at s_waitcnt as well (must match
     *  the sampler's own block table). */
    bool splitBbAtWaitcnt = false;
    /** Run the frozen AoS per-cycle reference engine instead of the
     *  event-driven core (cross-checks, bench baseline); see
     *  timing/reference.hpp. */
    bool useSeedLoop = false;
    /** Replay the issue front from this captured functional trace
     *  instead of re-executing register semantics (func/warp_trace.hpp).
     *  The caller must have applied the trace's store log to memory and
     *  guarantees the trace matches (program, dims, input). Ignored by
     *  the seed reference loop, which always emulates. */
    const func::LaunchTrace *replay = nullptr;
};

/** Result of one detailed kernel run. */
struct RunOutcome
{
    Cycle startCycle = 0;        ///< absolute GPU cycle at launch
    Cycle endCycle = 0;          ///< absolute GPU cycle at completion
    std::uint64_t instsIssued = 0;
    std::uint32_t wavesCompleted = 0;
    bool stoppedEarly = false;   ///< monitor requested a sampling switch
    /** First workgroup never dispatched (== numWorkgroups when all ran). */
    std::uint32_t firstUndispatchedWg = 0;
    /** Cycles with at least one resident wavefront on any CU. */
    Cycle activeCycles = 0;
    /** Integral of (CUs with resident work) over the run's cycles. */
    std::uint64_t busyCuCycles = 0;
    /** Integral of resident wavefronts over the run's cycles. */
    std::uint64_t waveCycles = 0;
    /** Wavefront IPC per time bucket when collectIpcTrace is set. */
    std::vector<double> ipcTrace;

    Cycle cycles() const { return endCycle - startCycle; }
};

/**
 * The GPU. The clock is monotonic across kernel launches so caches stay
 * warm and port/bank availability timestamps remain meaningful, exactly
 * as on hardware.
 */
class Gpu
{
  public:
    explicit Gpu(const GpuConfig &cfg);
    ~Gpu(); // out of line: ReferenceEngine is incomplete here

    /**
     * Run one kernel in detailed mode. When @p monitor requests a stop,
     * dispatching halts, resident workgroups drain, and the outcome
     * reports stoppedEarly plus the first undispatched workgroup.
     */
    RunOutcome runKernel(const isa::Program &program,
                         const func::LaunchDims &dims,
                         func::GlobalMemory &mem,
                         KernelMonitor *monitor = nullptr,
                         const RunOptions &opts = {});

    /** Advance the clock without simulating (sampled/skipped periods). */
    void skipTime(Cycle cycles) { now_ += cycles; }

    Cycle now() const { return now_; }
    const GpuConfig &config() const { return cfg_; }
    MemorySystem &memsys() { return memsys_; }

    /** Export memory-system and run statistics. Exported counters are
     *  user-visible results (determinism sink). */
    void exportStats(StatRegistry &stats) const;

  private:
    /** Heap entry: (next-event cycle, cuId). std::greater pops the
     *  smallest cycle first, ties in ascending cuId order — the serial
     *  CU visiting order. */
    using HeapEntry = std::pair<Cycle, std::uint32_t>;
    using EventHeap =
        std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                            std::greater<HeapEntry>>;

    /** Calendar-wheel front end for the event heap: events within the
     *  next kWheelSize cycles land in O(1) ring buckets (indexed by
     *  cycle & mask), so the dense case — every busy CU due again next
     *  cycle — never touches the heap. Only far events (memory misses)
     *  pay the O(log n) heap cost. Buckets are CU bitmaps, so filing is
     *  a bit-set and extraction walks set bits in ascending cuId order
     *  (the serial visiting order) without sorting. Power of two. */
    static constexpr std::uint32_t kWheelSize = 16;

    RunOutcome runEventLoop(KernelMonitor *monitor,
                            const RunOptions &opts);

    /** (Re)file @p cu in the event heap at @p hint (its nextHint(), or
     *  the hint its tick returned, which saves a read of the cold CU
     *  object); maintains the one-valid-entry-per-CU invariant via
     *  filedAt_. */
    void fileCu(std::uint32_t cu, Cycle hint, Cycle floor);

    /** Sync the CU's residency flag into activeCuCount_. */
    void updateBusy(std::uint32_t cu);

    /** Fold retirements of a just-ticked CU into the wave/dispatch
     *  bookkeeping. */
    void noteRetirements(std::uint32_t cu);

    /** Add one instruction-issue sample to the IPC trace. */
    static void addIpcSample(RunOutcome &out, const RunOptions &opts,
                             Cycle now, std::uint32_t issued);

    /** Accumulate occupancy integrals for an advance of @p dt cycles
     *  using the current (post-tick) residency. */
    void accountAdvance(RunOutcome &out, Cycle dt) const;

    GpuConfig cfg_;
    MemorySystem memsys_;
    /** Dispatch-time capture engine shared by every CU: emulating each
     *  warp to completion in one go keeps one register file cache-warm,
     *  where stepping inside the issue loop would touch a different
     *  resident wave's registers on almost every issue. */
    func::WarpCapturer capturer_;
    std::vector<ComputeUnit> cus_;
    Dispatcher dispatcher_;
    /** Frozen AoS baseline serving useSeedLoop runs; built on first
     *  use, shares memsys_ and the clock with the event core. */
    std::unique_ptr<ReferenceEngine> reference_;
    Cycle now_ = 0;
    std::uint64_t kernelSeq_ = 0;

    // Per-kernel event/bookkeeping state (reset in runKernel).
    EventHeap heap_;
    /** kWheelSize buckets of wheelWords_ 64-bit CU masks each. */
    std::vector<std::uint64_t> wheelBits_;
    std::uint32_t wheelWords_ = 1;
    std::vector<Cycle> filedAt_;   ///< cycle of each CU's valid entry
    std::vector<std::uint8_t> cuBusy_;
    std::vector<std::uint32_t> prevRetired_;
    std::uint32_t activeCuCount_ = 0;
    std::uint32_t residentWaveCount_ = 0;
    std::uint32_t wavesPerWg_ = 0;

    // Cumulative occupancy counters across kernels (exportStats).
    std::uint64_t kernelsRun_ = 0;
    Cycle activeCyclesTotal_ = 0;
    std::uint64_t busyCuCyclesTotal_ = 0;
    std::uint64_t waveCyclesTotal_ = 0;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_GPU_HPP
