/**
 * @file
 * The public entry point of the library: a Platform owns one simulated
 * GPU + memory and launches kernels under a selected simulation mode
 * (full detailed, Photon, or the PKA baseline). This mirrors how a user
 * drives MGPUSim: allocate buffers, copy data, launch, read back.
 */

#ifndef PHOTON_DRIVER_PLATFORM_HPP
#define PHOTON_DRIVER_PLATFORM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "func/memory.hpp"
#include "func/warp_trace.hpp"
#include "func/wave_state.hpp"
#include "isa/program.hpp"
#include "sampling/photon.hpp"
#include "sampling/pka.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "timing/backend.hpp"
#include "timing/gpu.hpp"
#include "timing/interval_backend.hpp"

namespace photon::driver {

/** How kernels are simulated. */
enum class SimMode
{
    FullDetailed, ///< cycle-level simulation of every instruction
    Photon,       ///< the paper's three-level sampled methodology
    Pka,          ///< the PKA baseline
};

const char *simModeName(SimMode mode);

/** Per-launch result: predicted kernel time plus host wall time. */
struct LaunchResult
{
    sampling::KernelRunResult sample;
    double wallSeconds = 0.0; ///< host time spent simulating this launch
    std::string label;
};

/** The simulation platform. */
class Platform
{
  public:
    /**
     * @param backend timing backend for full-detailed-mode launches
     *        (see timing::BackendKind). The sampled modes (photon,
     *        pka) require the detailed backend — their control planes
     *        live in its monitor hooks — so non-detailed backends are
     *        only valid with SimMode::FullDetailed.
     */
    Platform(const GpuConfig &gpu_cfg, SimMode mode,
             const SamplingConfig &sampling_cfg = {},
             timing::BackendKind backend = timing::BackendKind::Detailed);
    ~Platform();

    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    // ----- Memory management -----

    /** Allocate a device buffer; returns its base address. */
    Addr alloc(std::uint64_t bytes);

    /** Host -> device copy. */
    void memWrite(Addr dst, const void *src, std::uint64_t bytes);

    /** Device -> host copy. */
    void memRead(Addr src, void *dst, std::uint64_t bytes) const;

    /** Allocate + fill a kernarg buffer from 32-bit words. */
    Addr packArgs(const std::vector<std::uint32_t> &args);

    // ----- Execution -----

    /**
     * Launch one kernel and simulate it under the platform's mode.
     *
     * @param label optional tag recorded in the launch log
     */
    LaunchResult launch(const isa::ProgramPtr &program,
                        std::uint32_t num_workgroups,
                        std::uint32_t waves_per_workgroup, Addr kernarg,
                        const std::string &label = "");

    // ----- Introspection -----

    SimMode mode() const { return mode_; }
    const GpuConfig &gpuConfig() const { return gpuCfg_; }
    func::GlobalMemory &mem() { return mem_; }
    timing::Gpu &gpu() { return gpu_; }
    /** Photon internals; null unless mode() == Photon. */
    sampling::PhotonSampler *photon() { return photon_.get(); }
    /** PKA internals; null unless mode() == Pka. */
    sampling::PkaSampler *pka() { return pka_.get(); }

    /** The selected timing backend for full-detailed launches. */
    timing::BackendKind backendKind() const { return backend_; }
    /** The backend driving full-detailed launches (the detailed
     *  adapter or the interval model). */
    timing::TimingBackend &activeBackend();
    /** Interval backend; null unless backendKind() needs one. */
    timing::IntervalBackend *interval() { return interval_.get(); }

    /** Sum of predicted kernel cycles across all launches. */
    Cycle totalKernelCycles() const { return totalCycles_; }
    /** Sum of predicted instruction counts. */
    std::uint64_t totalInsts() const { return totalInsts_; }
    /** Host wall time spent simulating, in seconds. */
    double totalWallSeconds() const { return totalWall_; }
    /** All launches so far. */
    const std::vector<LaunchResult> &launchLog() const { return log_; }

    // ----- Functional trace reuse (DESIGN.md §15) -----

    /** Share a trace cache with other platforms (campaign workers,
     *  photond); null restores the private per-platform store. The
     *  store must outlive the platform. */
    void setTraceStore(func::TraceStore *store)
    {
        traceStore_ = store ? store : &ownTraceStore_;
    }
    func::TraceStore &traceStore() { return *traceStore_; }

    /** Launches served by a cached trace (emulation skipped). */
    std::uint64_t traceHits() const { return traceHits_; }
    /** Traceable launches that found no cached trace. */
    std::uint64_t traceMisses() const { return traceMisses_; }
    /** Traces this platform captured (= misses that captured). */
    std::uint64_t traceCaptures() const { return traceCaptures_; }

    /** Per-launch telemetry records, in launch order (the telemetry
     *  spine: flows on to the campaign runner and --telemetry). */
    std::vector<sampling::KernelTelemetry> telemetry() const;

    /** Memory-system and run statistics. */
    StatRegistry stats() const;

  private:
    /** Lookup-or-capture for a full-detailed launch: on a hit, applies
     *  the trace's store log to memory (replay runs never write); on a
     *  miss, captures (which executes the launch functionally). Never
     *  null. */
    func::LaunchTracePtr acquireTrace(const isa::Program &program,
                                      const func::LaunchDims &dims);

    GpuConfig gpuCfg_;
    SimMode mode_;
    SamplingConfig samplingCfg_;
    timing::BackendKind backend_;
    func::GlobalMemory mem_;
    timing::Gpu gpu_;
    timing::DetailedBackend detailed_;
    std::unique_ptr<timing::IntervalBackend> interval_;
    std::unique_ptr<sampling::PhotonSampler> photon_;
    std::unique_ptr<sampling::PkaSampler> pka_;

    /** Private trace cache; traceStore_ points here unless shared. */
    func::TraceStore ownTraceStore_;
    func::TraceStore *traceStore_ = &ownTraceStore_;
    std::uint64_t traceHits_ = 0;
    std::uint64_t traceMisses_ = 0;
    std::uint64_t traceCaptures_ = 0;

    Cycle totalCycles_ = 0;
    std::uint64_t totalInsts_ = 0;
    double totalWall_ = 0.0;
    std::vector<LaunchResult> log_;
};

} // namespace photon::driver

#endif // PHOTON_DRIVER_PLATFORM_HPP
