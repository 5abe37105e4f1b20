#include "sampling/photon.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "isa/basic_block.hpp"
#include "sampling/bb_sampler.hpp"
#include "sampling/bbv.hpp"
#include "sampling/controller.hpp"
#include "sampling/warp_sampler.hpp"
#include "sim/log.hpp"
#include "timing/scheduler_model.hpp"

namespace photon::sampling {

PhotonSampler::PhotonSampler(timing::Gpu &gpu, const SamplingConfig &cfg)
    : gpu_(gpu), cfg_(cfg), cache_(cfg, gpu.config().totalWaveSlots())
{}

std::uint64_t
PhotonSampler::intervalMemoHits() const
{
    std::uint64_t n = 0;
    // Commutative sum: iteration order cannot affect the total.
    for (const auto &kv : intervalMemos_) // photon-lint: order-insensitive
        n += kv.second.hits();
    return n;
}

std::uint64_t
PhotonSampler::intervalMemoMisses() const
{
    std::uint64_t n = 0;
    // Commutative sum: iteration order cannot affect the total.
    for (const auto &kv : intervalMemos_) // photon-lint: order-insensitive
        n += kv.second.misses();
    return n;
}

std::string
PhotonSampler::launchKey(const isa::Program &program,
                         const func::LaunchDims &dims)
{
    std::ostringstream os;
    os << program.name() << '#' << dims.numWorkgroups << 'x'
       << dims.wavesPerWorkgroup;
    return os.str();
}

KernelRunResult
PhotonSampler::runKernel(const isa::Program &program,
                         const func::LaunchDims &dims,
                         func::GlobalMemory &mem,
                         const func::LaunchTrace *trace)
{
    KernelRunResult res;
    KernelTelemetry &tele = res.telemetry;
    tele.kernel = program.name();
    tele.numWorkgroups = dims.numWorkgroups;
    tele.wavesPerWorkgroup = dims.wavesPerWorkgroup;
    tele.totalWarps = dims.totalWaves();

    isa::BasicBlockTable bb_table(program, cfg_.bbSplitAtWaitcnt);

    // Step 1: online analysis (or reuse — the offline mode of §6.3).
    std::string key = launchKey(program, dims);
    auto it = analyses_.find(key);
    bool reused = it != analyses_.end();
    if (!reused) {
        it = analyses_
                 .emplace(key, analyzeKernel(program, bb_table, dims, mem,
                                             cfg_, trace))
                 .first;
    }
    const OnlineAnalysis &analysis = it->second;
    tele.analysisInsts = reused ? 0 : analysis.sampledInsts;
    tele.analysisReused = reused;

    // Step 2: kernel-sampling.
    if (cfg_.enableKernelSampling) {
        if (const KernelRecord *rec =
                cache_.match(analysis.signature, tele.totalWarps)) {
            KernelPrediction pred =
                KernelCache::predict(*rec, analysis.sampledInsts);
            gpu_.skipTime(pred.cycles);
            res.cycles = pred.cycles;
            res.insts = pred.insts;
            res.level = SampleLevel::Kernel;
            tele.level = res.level;
            tele.predictedCycles = res.cycles;
            tele.predictedInsts = res.insts;
            return res;
        }
    }

    // Step 3: detailed simulation with the control plane attached.
    WarpSampler warp_sampler(analysis, cfg_);
    BbSampler bb_sampler(program, bb_table, analysis, cfg_,
                         gpu_.config());
    std::uint32_t slots = timing::SchedulerModel::effectiveSlots(
        gpu_.config(), dims.wavesPerWorkgroup, program.ldsBytes());
    PhotonController mon(cfg_.enableWarpSampling ? &warp_sampler : nullptr,
                         cfg_.enableBbSampling ? &bb_sampler : nullptr,
                         slots);

    timing::RunOptions run_opts;
    run_opts.splitBbAtWaitcnt = cfg_.bbSplitAtWaitcnt;
    timing::RunOutcome outcome =
        gpu_.runKernel(program, dims, mem, &mon, run_opts);
    tele.detailedCycles = outcome.cycles();
    tele.detailedInsts = outcome.instsIssued;
    tele.detailedWarps = outcome.wavesCompleted;

    const SwitchDecision &decision = mon.decision();
    tele.switchCycle = decision.cycle;
    tele.residentAtSwitch = decision.residentAtStop;
    tele.warpDetector = decision.warpDetector;
    tele.bbStableRate = decision.bbStableRate;
    tele.noSwitchReason = decision.noSwitchReason;
    tele.hooksReleasedCycle = decision.releasedCycle;

    if (!outcome.stoppedEarly) {
        res.cycles = outcome.cycles();
        res.insts = outcome.instsIssued;
        res.level = SampleLevel::Full;
    } else {
        // Remaining (never-dispatched) warps are predicted through the
        // slot-occupancy scheduler. Slots free up at the retire times
        // observed during the drain.
        std::vector<Cycle> slot_times = mon.takeDrainRetires();
        timing::SchedulerModel sched(slots, decision.cycle,
                                     std::move(slot_times));

        std::uint32_t dispatched_warps =
            outcome.firstUndispatchedWg * dims.wavesPerWorkgroup;
        std::uint64_t rem_insts = 0;

        if (decision.level == SampleLevel::Warp) {
            Cycle dur = static_cast<Cycle>(std::max<long long>(
                1, std::llround(warp_sampler.meanWarpDuration())));
            double per_warp = analysis.avgInstsPerWarp();
            if (analysis.dominantType != WarpClassifier::kNoType) {
                per_warp = static_cast<double>(
                    analysis.classifier.types()[analysis.dominantType]
                        .instCount);
            }
            for (WarpId w = dispatched_warps; w < tele.totalWarps; ++w)
                sched.scheduleWarp(dur);
            rem_insts = static_cast<std::uint64_t>(
                per_warp * (tele.totalWarps - dispatched_warps));
            res.level = SampleLevel::Warp;
        } else {
            // Basic-block-sampling: functional simulation provides each
            // remaining warp's dynamic BBV (and applies its stores).
            // Predictions are memoized per distinct BBV under the
            // sampler's frozen state fingerprint — warps sharing a
            // behaviour class pay the prediction walk once.
            std::ostringstream mk;
            mk << key << '@' << std::hex
               << bb_sampler.stateFingerprint();
            IntervalMemo &memo =
                intervalMemos_.try_emplace(mk.str()).first->second;
            for (WarpId w = dispatched_warps; w < tele.totalWarps; ++w) {
                Bbv bbv(bb_table.numBlocks());
                std::uint64_t insts = traceWarpBbv(
                    program, bb_table, dims, mem, w, bbv, trace);
                std::uint64_t fp = IntervalMemo::fingerprint(bbv);
                Cycle dur;
                if (!memo.lookup(fp, &dur)) {
                    dur = std::max<Cycle>(1,
                                          bb_sampler.predictWarp(bbv));
                    memo.insert(fp, dur);
                }
                sched.scheduleWarp(dur);
                rem_insts += insts;
            }
            res.level = SampleLevel::BasicBlock;
        }

        Cycle kernel_end = std::max(outcome.endCycle, sched.endCycle());
        gpu_.skipTime(kernel_end - outcome.endCycle);
        res.cycles = kernel_end - outcome.startCycle;
        res.insts = outcome.instsIssued + rem_insts;
    }
    tele.level = res.level;
    tele.predictedCycles = res.cycles;
    tele.predictedInsts = res.insts;

    // Record for future kernel-sampling.
    KernelRecord rec;
    rec.name = program.name();
    rec.signature = analysis.signature;
    rec.numWarps = tele.totalWarps;
    rec.totalInsts = res.insts;
    rec.sampledInsts = analysis.sampledInsts;
    rec.cycles = res.cycles;
    cache_.insert(std::move(rec));
    return res;
}

} // namespace photon::sampling
