/**
 * @file
 * The sampling control plane. A SamplingController is the only thing the
 * Photon orchestrator attaches to a detailed run: it observes the data
 * plane exclusively through the timing::KernelMonitor hook interface
 * (wave dispatched/retired, instruction, basic block, kernel phase) and
 * owns the switch decision. The timing layer never sees a sampler type;
 * the samplers never see a timing internal. Ablating a sampling level is
 * therefore purely a SamplingConfig matter — the controller simply does
 * not attach the disabled policy.
 *
 *   ┌────────────── data plane (src/timing) ──────────────┐
 *   │ Gpu::runKernel ──► run loop ──► KernelMonitor hooks │
 *   └───────────────────────────┬─────────────────────────┘
 *                               │ onKernelPhase / onWaveDispatched /
 *                               │ onWaveRetired / onInstruction /
 *                               │ onBbExecuted / wantsStop
 *   ┌───────────────────────────▼─────────────────────────┐
 *   │ control plane (src/sampling): SamplingController     │
 *   │   PhotonController ──► WarpSampler / BbSampler       │
 *   │   (both thin policies over StabilityDetector +       │
 *   │    SwitchGovernor) ──► SwitchDecision + telemetry    │
 *   └──────────────────────────────────────────────────────┘
 */

#ifndef PHOTON_SAMPLING_CONTROLLER_HPP
#define PHOTON_SAMPLING_CONTROLLER_HPP

#include <cstdint>
#include <vector>

#include "sampling/stability.hpp"
#include "sampling/telemetry.hpp"
#include "timing/monitor.hpp"

namespace photon::sampling {

class WarpSampler;
class BbSampler;

/** Everything the control plane decided about one detailed run, frozen
 *  at decision time (or at kernel completion when no level fired). */
struct SwitchDecision
{
    SampleLevel level = SampleLevel::Full; ///< winning level; Full = none
    Cycle cycle = 0;                       ///< cycle of the stop request
    std::uint32_t residentAtStop = 0;      ///< wavefronts left draining
    /** Warp detector state at decision (or completion) time. */
    StabilitySnapshot warpDetector;
    /** Weighted stable-block rate at decision (or completion) time. */
    double bbStableRate = 0.0;
};

/**
 * Interface the orchestrator programs against: a KernelMonitor that
 * additionally reports its decision and the retire times observed while
 * the machine drained (slot seeds for the scheduler model).
 */
class SamplingController : public timing::KernelMonitor
{
  public:
    /** The decision, valid once the run completed or stopped. */
    virtual const SwitchDecision &decision() const = 0;

    /** Retire cycles observed after the stop request (moved out). */
    virtual std::vector<Cycle> takeDrainRetires() = 0;
};

/**
 * The standard Photon controller: wires the warp- and basic-block-level
 * policies into the hooks, arbitrates between them (warp-sampling wins
 * when both trigger — it skips functional emulation too), and freezes
 * the detectors at the stop decision. Pass nullptr for a policy to
 * ablate that level.
 */
class PhotonController final : public SamplingController
{
  public:
    /** @param min_retired_warps warm-up gate: no switch before the
     *  first full occupancy generation has retired (cold caches and
     *  queue build-up make the first generation unrepresentative). */
    PhotonController(WarpSampler *warp, BbSampler *bb,
                     std::uint64_t min_retired_warps);

    void onKernelPhase(timing::KernelPhase phase, Cycle now) override;
    void onWaveDispatched(WarpId warp, Cycle now) override;
    void onWaveRetired(WarpId warp, Cycle now,
                       std::uint64_t inst_count) override;
    void onInstruction(WarpId warp, const func::StepResult &result,
                       Cycle issue, Cycle complete) override;
    void onBbExecuted(WarpId warp, isa::BbId bb, Cycle issue, Cycle retire,
                      std::uint32_t active_lanes) override;
    bool wantsStop(Cycle now) override;

    const SwitchDecision &decision() const override { return decision_; }
    std::vector<Cycle> takeDrainRetires() override
    {
        return std::move(drainRetires_);
    }

    bool stopped() const { return stopped_; }

  private:
    /** Freeze detector state into the decision record. */
    void captureDetectors();

    WarpSampler *warp_;
    BbSampler *bb_;
    std::uint64_t minRetired_;
    std::uint64_t dispatched_ = 0;
    std::uint64_t retired_ = 0;
    bool stopped_ = false;
    SwitchDecision decision_;
    std::vector<Cycle> drainRetires_;
};

} // namespace photon::sampling

#endif // PHOTON_SAMPLING_CONTROLLER_HPP
