/**
 * @file
 * The Photon orchestrator (paper Section 4): combines kernel-, warp- and
 * basic-block-sampling over the detailed GPU model, fully online.
 *
 * Per kernel launch:
 *   1. Online analysis functionally simulates ~1% of warps.
 *   2. Kernel-sampling: if a prior kernel's GPU BBV matches, skip
 *      simulation entirely and predict from its IPC.
 *   3. Otherwise run detailed simulation with the control plane
 *      (PhotonController) attached through the KernelMonitor hooks;
 *      warp-sampling wins when both levels trigger (it is faster). On a
 *      switch, dispatching halts, residents drain, and the remaining
 *      warps are predicted (warp level: mean duration, scheduler-only;
 *      block level: functional simulation plus per-block time
 *      prediction) through the slot-occupancy scheduler model. Once
 *      the switch fires, or once every workgroup is dispatched and no
 *      switch could skip a warp, the controller releases its hooks and
 *      the rest of the run takes the monitor-free issue path.
 *   4. If no level triggers, the kernel falls back to full detail.
 *
 * Every launch yields a KernelTelemetry record (see telemetry.hpp)
 * capturing the decision and the predicted-vs-detailed split.
 */

#ifndef PHOTON_SAMPLING_PHOTON_HPP
#define PHOTON_SAMPLING_PHOTON_HPP

#include <cstdint>
#include <string>
#include <unordered_map>

#include "func/memory.hpp"
#include "sampling/analysis.hpp"
#include "func/wave_state.hpp"
#include "isa/program.hpp"
#include "sampling/kernel_cache.hpp"
#include "sampling/telemetry.hpp"
#include "sim/config.hpp"
#include "timing/gpu.hpp"

namespace photon::sampling {

/** Result of one (possibly sampled) kernel run. */
struct KernelRunResult
{
    Cycle cycles = 0;        ///< predicted kernel execution time
    std::uint64_t insts = 0; ///< predicted instruction count
    SampleLevel level = SampleLevel::Full;

    /** Full per-launch diagnostics (decision + measurement split). */
    KernelTelemetry telemetry;
};

/** The Photon sampled simulator, wrapping a detailed Gpu. */
class PhotonSampler
{
  public:
    PhotonSampler(timing::Gpu &gpu, const SamplingConfig &cfg);

    /** Run (or skip) one kernel with the full Photon methodology.
     *  @p trace optionally supplies a captured functional trace for
     *  this exact launch (DESIGN.md §15): the online-analysis pass and
     *  the block-level epilogue then replay warps from the capture
     *  instead of emulating them (bit-identical BBVs, stores applied
     *  from the trace's log). The detailed phase does not use it: the
     *  core captures each dispatched warp as it is placed (its stores
     *  landing) and replays that capture, so exactly the dispatched
     *  warps' stores reach memory. */
    KernelRunResult runKernel(const isa::Program &program,
                              const func::LaunchDims &dims,
                              func::GlobalMemory &mem,
                              const func::LaunchTrace *trace = nullptr);

    /** The prior-kernel store (persists across launches). */
    KernelCache &cache() { return cache_; }
    const SamplingConfig &config() const { return cfg_; }

    /**
     * Offline mode (paper Section 6.3): online-analysis results are
     * micro-architecture agnostic, so a prior run's analysis store can
     * be imported to skip the functional analysis pass entirely.
     */
    using AnalysisStore = std::unordered_map<std::string, OnlineAnalysis>;

    /** True when the analysis store holds this launch's analysis, so
     *  runKernel will neither analyse the launch nor read a trace for
     *  it unless the launch switches to the block level (whose
     *  epilogue then emulates its warps, bit-identically). */
    bool
    hasAnalysis(const isa::Program &program,
                const func::LaunchDims &dims) const
    {
        return analyses_.count(launchKey(program, dims)) != 0;
    }

    /** Export this run's per-launch analysis results. */
    const AnalysisStore &analysisStore() const { return analyses_; }

    /** Import a prior run's analysis results (enables offline mode). */
    void importAnalysisStore(AnalysisStore store)
    {
        analyses_ = std::move(store);
    }

  private:
    static std::string launchKey(const isa::Program &program,
                                 const func::LaunchDims &dims);

    timing::Gpu &gpu_;
    SamplingConfig cfg_;
    KernelCache cache_;
    AnalysisStore analyses_;
};

} // namespace photon::sampling

#endif // PHOTON_SAMPLING_PHOTON_HPP
