#include "sampling/bb_sampler.hpp"

#include <cmath>
#include <cstring>

namespace photon::sampling {

BbSampler::BbSampler(const isa::Program &program,
                     const isa::BasicBlockTable &bb_table,
                     const OnlineAnalysis &analysis,
                     const SamplingConfig &cfg, const GpuConfig &gpu_cfg)
    : program_(program), bbTable_(bb_table), cfg_(cfg),
      latencies_(gpu_cfg), governor_(cfg.bbWindow / 4, cfg.confirmChecks)
{
    std::size_t slots = std::size_t{bb_table.numBlocks()} * kLaneBuckets;
    detectors_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        detectors_.push_back(
            std::make_unique<StabilityDetector>(cfg.bbWindow, cfg.delta));
    }

    // Instruction-count share per block, from the online analysis
    // (paper Figure 8: the sampled distribution matches the full one).
    std::uint64_t total_insts = 0;
    for (std::uint64_t c : analysis.bbInstCounts)
        total_insts += c;
    weight_.resize(slots, 0.0);
    if (total_insts > 0) {
        for (std::size_t i = 0; i < slots; ++i) {
            weight_[i] = static_cast<double>(analysis.bbInstCounts[i]) /
                         static_cast<double>(total_insts);
        }
    }
}

void
BbSampler::onBbExecuted(isa::BbId bb, Cycle issue, Cycle retire,
                        std::uint32_t active_lanes)
{
    detectors_[bbSlot(bb, active_lanes)]->addPoint(
        static_cast<double>(issue), static_cast<double>(retire));
    governor_.recordEvent();
}

double
BbSampler::stableRate() const
{
    double rate = 0.0;
    for (std::uint32_t i = 0; i < detectors_.size(); ++i) {
        if (weight_[i] > 0.0 && detectors_[i]->stable())
            rate += weight_[i];
    }
    return rate;
}

bool
BbSampler::wantsSwitch()
{
    return governor_.poll([this] { return stableRate() >= cfg_.stableBbRate; });
}

double
BbSampler::predictSlotTime(std::uint32_t slot) const
{
    const StabilityDetector &det = *detectors_[slot];
    if (det.totalPoints() >= det.window())
        return det.meanExecTime();
    // Rare slot: barely seen in detail. Fall back to any observed
    // bucket of the same block, then to the interval model over the
    // online latency table (paper Figure 9).
    isa::BbId bb = slot / kLaneBuckets;
    const StabilityDetector *best = nullptr;
    for (std::uint32_t k = 0; k < kLaneBuckets; ++k) {
        const StabilityDetector &d = *detectors_[bb * kLaneBuckets + k];
        if (d.totalPoints() > 0 &&
            (!best || d.totalPoints() > best->totalPoints())) {
            best = &d;
        }
    }
    if (best)
        return best->meanExecTime();
    return static_cast<double>(IntervalModel::predictBb(
        program_, bbTable_.block(bb), latencies_));
}

std::uint64_t
BbSampler::stateFingerprint() const
{
    std::uint64_t h = kFnvBasis;
    h = memoMix(h, detectors_.size());
    for (std::size_t i = 0; i < detectors_.size(); ++i) {
        const StabilityDetector &d = *detectors_[i];
        std::uint64_t n = d.totalPoints();
        h = memoMix(h, n);
        if (n > 0) {
            double mean = d.meanExecTime();
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(mean));
            std::memcpy(&bits, &mean, sizeof(bits));
            h = memoMix(h, bits);
        }
    }
    return memoMix(h, latencies_.fingerprint());
}

Cycle
BbSampler::predictWarp(const Bbv &bbv) const
{
    double total = 0.0;
    const auto &counts = bbv.counts();
    for (std::uint32_t s = 0; s < counts.size(); ++s) {
        if (counts[s] > 0)
            total += static_cast<double>(counts[s]) * predictSlotTime(s);
    }
    return static_cast<Cycle>(std::llround(total));
}

} // namespace photon::sampling
