/**
 * @file
 * The interval timing backend: a fast analytical model that predicts a
 * kernel's execution time without running the cycle-level core. Every
 * warp's instruction stream comes from the launch's functional trace
 * (func/warp_trace.hpp: the caller's, or one the backend captures,
 * landing the launch's stores), but only the warps of a static sample
 * of CUs (one in four) are priced as they replay: per-opcode
 * latencies come from the sampling layer's interval-model latency
 * table (paper Figure 9), memory instructions are classified hit/miss
 * by the detailed model's SetAssocCache in its L1V/L2 geometry (tag
 * state only), and the remaining warps' durations are extrapolated
 * from the matching warp slot of their sample CU by instruction
 * count. Warps are packed onto the machine's wavefront slots through
 * the slot-occupancy scheduler model, and the resulting makespan is
 * floored by the machine's DRAM-line bandwidth, SIMD-issue and
 * MSHR-concurrency limits (sample counters rescaled to machine
 * equivalents). The per-opcode latencies are that table's
 * configuration-derived defaults, the same for every kernel: nothing
 * feeds the backend observed latencies.
 *
 * Results are deterministic (same job -> bit-identical cycles) but
 * deliberately NOT cycle-parity with the detailed core: there is no
 * event loop, no MSHR or bank contention and no inter-warp
 * interference beyond slot occupancy and the aggregate throughput
 * floors. BackendCaps reflects that — no monitor hooks, no occupancy
 * statistics.
 *
 * Layering: this header must stay free of src/sampling includes (the
 * CI hygiene grep pins every timing header); the interval-model reuse
 * lives behind the pimpl in interval_backend.cpp.
 */

#ifndef PHOTON_TIMING_INTERVAL_BACKEND_HPP
#define PHOTON_TIMING_INTERVAL_BACKEND_HPP

#include <memory>

#include "timing/backend.hpp"

namespace photon::timing {

/** The analytical interval backend (see file comment). */
class IntervalBackend final : public TimingBackend
{
  public:
    /** Shares @p gpu's clock and configuration; never runs its event
     *  core. */
    explicit IntervalBackend(Gpu &gpu);
    ~IntervalBackend() override;

    IntervalBackend(const IntervalBackend &) = delete;
    IntervalBackend &operator=(const IntervalBackend &) = delete;

    const char *name() const override { return "interval"; }

    BackendCaps
    caps() const override
    {
        // All flags false: analytical results only.
        return BackendCaps{};
    }

    /** Predict one kernel. @p monitor is ignored (no monitorHooks
     *  capability); of @p opts only splitBbAtWaitcnt is meaningful. */
    RunOutcome runKernel(const isa::Program &program,
                         const func::LaunchDims &dims,
                         func::GlobalMemory &mem,
                         KernelMonitor *monitor = nullptr,
                         const RunOptions &opts = {}) override;

    void skipTime(Cycle cycles) override;
    Cycle now() const override;
    const GpuConfig &config() const override;

    /** Export prediction statistics (kernels/warps/insts predicted,
     *  tag-cache hit/miss totals). Exported counters are user-visible
     *  results (determinism sink). */
    void exportStats(StatRegistry &stats) const override;

  private:
    struct Impl;

    Gpu &gpu_;
    /** Per-opcode latencies plus the L1/L2 tag caches (deliberately
     *  warm across kernels, like the machine's caches). The store has a
     *  single owner (one backend per job), so it takes no lock. */
    std::unique_ptr<Impl> impl_;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_INTERVAL_BACKEND_HPP
