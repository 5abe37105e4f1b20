#include "sampling/controller.hpp"

#include "sampling/bb_sampler.hpp"
#include "sampling/warp_sampler.hpp"

namespace photon::sampling {

PhotonController::PhotonController(WarpSampler *warp, BbSampler *bb,
                                   std::uint64_t min_retired_warps)
    : warp_(warp), bb_(bb), minRetired_(min_retired_warps)
{}

void
PhotonController::captureDetectors()
{
    if (warp_)
        decision_.warpDetector = warp_->detector().snapshot();
    if (bb_)
        decision_.bbStableRate = bb_->stableRate();
}

void
PhotonController::freezeWithoutSwitch()
{
    // Freeze the detector state anyway so Full-level telemetry still
    // reports how close each level came to firing.
    captureDetectors();
    if (!warp_ && !bb_)
        decision_.noSwitchReason = "levels_disabled";
    else if (consulted_)
        decision_.noSwitchReason = "never_stable";
    else
        decision_.noSwitchReason = "all_dispatched";
}

void
PhotonController::onKernelPhase(timing::KernelPhase phase, Cycle)
{
    // A run loop that never polled for a release (the seed reference
    // loop) ends here without a decision.
    if (phase == timing::KernelPhase::Complete && !stopped_ && !released_)
        freezeWithoutSwitch();
}

void
PhotonController::onWaveDispatched(WarpId w, Cycle now)
{
    ++dispatched_;
    if (warp_)
        warp_->onWaveDispatched(w, now);
}

void
PhotonController::onWaveRetired(WarpId w, Cycle now, std::uint64_t)
{
    ++retired_;
    // After the switch the machine drains and contention decays, so
    // drain events would bias the predictors optimistically: the
    // detectors are frozen at the stop decision (their state is
    // exactly "the last n" of the paper's Step 3).
    if (stopped_) {
        drainRetires_.push_back(now);
        return;
    }
    if (released_)
        return;
    if (warp_)
        warp_->onWaveRetired(w, now);
}

void
PhotonController::onInstruction(WarpId, const func::StepResult &res,
                                Cycle issue, Cycle complete)
{
    if (bb_ && !stopped_)
        bb_->onInstruction(res.op, issue, complete);
}

void
PhotonController::onBbExecuted(WarpId, isa::BbId bb, Cycle issue,
                               Cycle retire, std::uint32_t active_lanes)
{
    if (bb_ && !stopped_)
        bb_->onBbExecuted(bb, issue, retire, active_lanes);
}

bool
PhotonController::wantsStop(Cycle now)
{
    if (stopped_)
        return true;
    if (retired_ < minRetired_)
        return false;
    consulted_ = true;
    SampleLevel winner = SampleLevel::Full;
    // Warp-sampling is preferred: it skips functional emulation too.
    if (warp_ && warp_->wantsSwitch())
        winner = SampleLevel::Warp;
    else if (bb_ && bb_->wantsSwitch())
        winner = SampleLevel::BasicBlock;
    if (winner == SampleLevel::Full)
        return false;
    stopped_ = true;
    decision_.level = winner;
    decision_.cycle = now;
    decision_.residentAtStop =
        static_cast<std::uint32_t>(dispatched_ - retired_);
    captureDetectors();
    return true;
}

bool
PhotonController::wantsRelease(Cycle now, bool all_dispatched)
{
    if (!stopped_ && !all_dispatched && (warp_ || bb_))
        return false;
    if (!stopped_)
        freezeWithoutSwitch();
    released_ = true;
    decision_.releasedCycle = now;
    return true;
}

} // namespace photon::sampling
