#include "driver/platform.hpp"

#include <chrono>

#include "sim/log.hpp"

namespace photon::driver {

const char *
simModeName(SimMode mode)
{
    switch (mode) {
      case SimMode::FullDetailed: return "full";
      case SimMode::Photon: return "photon";
      case SimMode::Pka: return "pka";
    }
    return "?";
}

Platform::Platform(const GpuConfig &gpu_cfg, SimMode mode,
                   const SamplingConfig &sampling_cfg,
                   timing::BackendKind backend)
    : gpuCfg_(gpu_cfg), mode_(mode), samplingCfg_(sampling_cfg),
      backend_(backend),
      mem_(gpu_cfg.dram.sizeBytes < (512ull << 20) ? gpu_cfg.dram.sizeBytes
                                                   : (512ull << 20)),
      gpu_(gpu_cfg), detailed_(gpu_)
{
    PHOTON_ASSERT(backend_ == timing::BackendKind::Detailed ||
                      mode_ == SimMode::FullDetailed,
                  "non-detailed timing backends require full mode (the "
                  "sampled modes' control planes need monitor hooks)");
    if (backend_ != timing::BackendKind::Detailed)
        interval_ = std::make_unique<timing::IntervalBackend>(gpu_);
    if (mode_ == SimMode::Photon)
        photon_ =
            std::make_unique<sampling::PhotonSampler>(gpu_, samplingCfg_);
    else if (mode_ == SimMode::Pka)
        pka_ = std::make_unique<sampling::PkaSampler>(gpu_, samplingCfg_);
}

timing::TimingBackend &
Platform::activeBackend()
{
    if (backend_ == timing::BackendKind::Interval)
        return *interval_;
    return detailed_;
}

Platform::~Platform() = default;

Addr
Platform::alloc(std::uint64_t bytes)
{
    return mem_.allocate(bytes);
}

void
Platform::memWrite(Addr dst, const void *src, std::uint64_t bytes)
{
    mem_.writeBlock(dst, src, bytes);
}

void
Platform::memRead(Addr src, void *dst, std::uint64_t bytes) const
{
    mem_.readBlock(src, dst, bytes);
}

Addr
Platform::packArgs(const std::vector<std::uint32_t> &args)
{
    Addr base = mem_.allocate(args.size() * 4 + 4);
    mem_.writeBlock(base, args.data(), args.size() * 4);
    return base;
}

LaunchResult
Platform::launch(const isa::ProgramPtr &program,
                 std::uint32_t num_workgroups,
                 std::uint32_t waves_per_workgroup, Addr kernarg,
                 const std::string &label)
{
    PHOTON_ASSERT(program != nullptr, "null program");
    func::LaunchDims dims;
    dims.numWorkgroups = num_workgroups;
    dims.wavesPerWorkgroup = waves_per_workgroup;
    dims.kernargBase = kernarg;

    LaunchResult result;
    result.label = label.empty() ? program->name() : label;

    auto t0 = std::chrono::steady_clock::now();
    switch (mode_) {
      case SimMode::FullDetailed: {
        func::LaunchTracePtr trace = acquireTrace(*program, dims);
        timing::TimingBackend &be = activeBackend();
        const timing::BackendCaps caps = be.caps();
        timing::RunOptions run_opts;
        run_opts.replay = trace.get();
        timing::RunOutcome out =
            be.runKernel(*program, dims, mem_, nullptr, run_opts);
        result.sample.cycles = out.cycles();
        result.sample.insts = out.instsIssued;
        result.sample.level = sampling::SampleLevel::Full;
        sampling::KernelTelemetry &tele = result.sample.telemetry;
        tele.kernel = program->name();
        tele.numWorkgroups = dims.numWorkgroups;
        tele.wavesPerWorkgroup = dims.wavesPerWorkgroup;
        tele.level = sampling::SampleLevel::Full;
        tele.predictedCycles = out.cycles();
        tele.predictedInsts = out.instsIssued;
        tele.totalWarps = dims.totalWaves();
        tele.backend = be.name();
        if (caps.cycleLevel) {
            tele.detailedCycles = out.cycles();
            tele.detailedInsts = out.instsIssued;
            tele.detailedWarps = out.wavesCompleted;
            tele.backendDetailedCycles = out.cycles();
        } else {
            tele.backendIntervalCycles = out.cycles();
        }
        break;
      }
      case SimMode::Photon: {
        // Consume-only: a launch trace is a functional run of every
        // warp, and a switch leaves the undispatched warps unrun, so
        // photon never captures one up front. Its detailed phase
        // captures each workgroup as it is placed and replays that
        // (timing/cu.hpp), which is as cheap as full mode's capture
        // plus replay. A trace captured elsewhere (campaign sibling,
        // photond warm state) replaces the per-warp analysis emulation
        // bit-identically. A launch whose analysis is already stored
        // does not need one, so it skips the key and the lookup.
        func::LaunchTracePtr trace;
        if (!photon_->hasAnalysis(*program, dims)) {
            trace = traceStore_->lookup(
                func::traceKey(*program, dims, mem_.contentHash()));
            if (trace)
                ++traceHits_;
            else
                ++traceMisses_;
        }
        result.sample =
            photon_->runKernel(*program, dims, mem_, trace.get());
        break;
      }
      case SimMode::Pka:
        result.sample = pka_->runKernel(*program, dims, mem_);
        break;
    }
    auto t1 = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.sample.telemetry.job = result.label;
    result.sample.telemetry.wallSeconds = result.wallSeconds;
    if (mode_ != SimMode::FullDetailed) {
        // The sampled modes run their detailed portion on the
        // cycle-level core; record that in the v3 fidelity split.
        result.sample.telemetry.backendDetailedCycles =
            result.sample.telemetry.detailedCycles;
    }

    totalCycles_ += result.sample.cycles;
    totalInsts_ += result.sample.insts;
    totalWall_ += result.wallSeconds;
    log_.push_back(result);
    return result;
}

func::LaunchTracePtr
Platform::acquireTrace(const isa::Program &program,
                       const func::LaunchDims &dims)
{
    const std::uint64_t fingerprint = mem_.contentHash();
    const std::string key = func::traceKey(program, dims, fingerprint);
    func::LaunchTracePtr trace = traceStore_->lookup(key);
    if (trace) {
        ++traceHits_;
        // Replay never writes memory; land the launch's stores up
        // front (replay reads nothing, so ordering is immaterial and
        // the final state matches an emulated launch bit-for-bit).
        func::applyAllStores(*trace, mem_);
        return trace;
    }
    ++traceMisses_;
    trace = func::captureLaunchTrace(program, dims, mem_, fingerprint);
    ++traceCaptures_;
    traceStore_->insert(key, trace);
    return trace;
}

std::vector<sampling::KernelTelemetry>
Platform::telemetry() const
{
    std::vector<sampling::KernelTelemetry> records;
    records.reserve(log_.size());
    for (const LaunchResult &l : log_)
        records.push_back(l.sample.telemetry);
    return records;
}

StatRegistry
Platform::stats() const
{
    StatRegistry reg;
    // Only backends that actually ran export their statistics: a
    // pure-interval platform never touched the detailed core, and
    // all-zero gpu.* counters would misreport "measured nothing" as
    // "measured zero".
    if (backend_ != timing::BackendKind::Interval) {
        gpu_.exportStats(reg);
        gpu_.exportWorkCounters(reg);
    }
    if (interval_)
        interval_->exportStats(reg);
    reg.set("platform.kernels", static_cast<double>(log_.size()));
    reg.set("platform.trace_hits", static_cast<double>(traceHits_));
    reg.set("platform.trace_misses", static_cast<double>(traceMisses_));
    reg.set("platform.trace_captures",
            static_cast<double>(traceCaptures_));
    reg.set("platform.fingerprint_bytes",
            static_cast<double>(mem_.fingerprintBytes()));
    reg.set("platform.total_cycles", static_cast<double>(totalCycles_));
    reg.set("platform.total_insts", static_cast<double>(totalInsts_));
    reg.set("platform.total_wall_seconds", totalWall_);
    return reg;
}

} // namespace photon::driver
