/**
 * @file
 * Basic-block-sampling (paper Section 4.1, Figure 7). During detailed
 * simulation, a per-block stability detector consumes (issue, retire)
 * pairs. When the instruction-weighted share of stable blocks exceeds
 * the threshold (95%), the kernel switches to basic-block-sampling: the
 * remaining warps are only functionally simulated and their time is the
 * sum of predicted per-block times. Rare blocks are predicted with the
 * interval model.
 */

#ifndef PHOTON_SAMPLING_BB_SAMPLER_HPP
#define PHOTON_SAMPLING_BB_SAMPLER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sampling/analysis.hpp"
#include "sampling/bbv.hpp"
#include "sampling/interval_model.hpp"
#include "sampling/stability.hpp"
#include "sim/config.hpp"

namespace photon::sampling {

/** Per-kernel basic-block-sampling state machine. */
class BbSampler
{
  public:
    BbSampler(const isa::Program &program,
              const isa::BasicBlockTable &bb_table,
              const OnlineAnalysis &analysis, const SamplingConfig &cfg,
              const GpuConfig &gpu_cfg);

    /** Feed one completed dynamic basic-block execution. */
    void onBbExecuted(isa::BbId bb, Cycle issue, Cycle retire,
                      std::uint32_t active_lanes);

    /** Feed one instruction's observed latency (for the rare-block
     *  interval model). */
    void
    onInstruction(isa::Opcode op, Cycle issue, Cycle complete)
    {
        latencies_.record(op, complete - issue);
    }

    /** True once the weighted stable-block rate crossed the threshold
     *  (checked at a throttled cadence). */
    bool wantsSwitch();

    /** Instruction-weighted share of currently-stable blocks. */
    double stableRate() const;

    /** Predicted execution time of one (block, bucket) slot. */
    double predictSlotTime(std::uint32_t slot) const;

    /** Predicted duration of one warp given its dynamic BBV. */
    Cycle predictWarp(const Bbv &bbv) const;

    const InstLatencyTable &latencyTable() const { return latencies_; }
    /** Detector for a (block, bucket) slot — see bbSlot(). */
    const StabilityDetector &detector(std::uint32_t slot) const
    {
        return *detectors_[slot];
    }
    const SwitchGovernor &governor() const { return governor_; }

  private:
    const isa::Program &program_;
    const isa::BasicBlockTable &bbTable_;
    const SamplingConfig &cfg_;

    std::vector<std::unique_ptr<StabilityDetector>> detectors_;
    std::vector<double> weight_; ///< instruction-count share per block
    InstLatencyTable latencies_;
    SwitchGovernor governor_;
};

} // namespace photon::sampling

#endif // PHOTON_SAMPLING_BB_SAMPLER_HPP
