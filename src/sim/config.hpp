/**
 * @file
 * GPU micro-architecture configuration (paper Table 1) plus the sampling
 * methodology parameters (paper Section 4).
 */

#ifndef PHOTON_SIM_CONFIG_HPP
#define PHOTON_SIM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace photon {

/** Configuration of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 16 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = kLineBytes;
    Cycle hitLatency = 16;

    /** Number of cache sets implied by size/ways/line. */
    std::uint32_t numSets() const { return sizeBytes / (ways * lineBytes); }
};

/**
 * GCN compute-unit geometry: 4 SIMDs of 16 lanes, each holding up to 10
 * resident wavefronts. Fixed in every Table 1 config and the tiny test
 * config, and a compile-time constant so the detailed core's per-SIMD
 * arbitration and hint loops have fixed trip counts.
 */
inline constexpr std::uint32_t kSimdsPerCu = 4;
inline constexpr std::uint32_t kWavesPerSimd = 10;

/** DRAM channel/bank model parameters. */
struct DramConfig
{
    std::uint64_t sizeBytes = 4ull << 30;
    std::uint32_t numBanks = 16;
    Cycle accessLatency = 220;
    /** Cycles a bank is busy per 64B line (bandwidth limit). */
    Cycle cyclesPerLine = 4;
};

/**
 * Full GPU configuration. Defaults approximate the AMD R9 Nano setup used
 * by the paper (Table 1); MI100 scales CU count and L2 capacity. The CU
 * geometry is not a field: every config has kSimdsPerCu SIMDs of
 * kWavesPerSimd wave slots (4 x 10, GCN).
 */
struct GpuConfig
{
    std::string name = "R9Nano";

    /** Compute units per GPU. */
    std::uint32_t numCus = 64;
    /** Issue occupancy of one 64-lane vector op on a 16-lane SIMD. */
    Cycle vectorIssueCycles = 4;
    /** Issue occupancy of a scalar op. */
    Cycle scalarIssueCycles = 1;
    /** LDS (shared memory) access latency. */
    Cycle ldsLatency = 8;
    /** Default ALU latencies per class; see isa::FuncUnit. */
    Cycle valuLatency = 8;
    Cycle saluLatency = 4;

    CacheConfig l1v{16 * 1024, 4, kLineBytes, 16};   ///< per CU
    CacheConfig l1i{32 * 1024, 4, kLineBytes, 8};    ///< per 4 CUs
    CacheConfig l1k{16 * 1024, 4, kLineBytes, 8};    ///< per 4 CUs (scalar)
    CacheConfig l2{256 * 1024, 16, kLineBytes, 110}; ///< per bank
    std::uint32_t l2Banks = 8;
    DramConfig dram{};

    /** Outstanding L1V miss lines per CU (MSHR entries). Bounds the
     *  DRAM backlog so memory latency saturates instead of growing
     *  without bound, as on real hardware. */
    std::uint32_t mshrsPerCu = 64;
    /** Maximum workgroups resident per CU. */
    std::uint32_t workgroupsPerCu = 8;
    /** LDS bytes per CU (capacity limit for workgroup placement). */
    std::uint32_t ldsBytesPerCu = 64 * 1024;

    /** Paper Table 1 left column: AMD R9 Nano. */
    static GpuConfig r9Nano();
    /** Paper Table 1 right column: AMD MI100. */
    static GpuConfig mi100();
    /** Tiny configuration for unit tests (4 CUs). */
    static GpuConfig testTiny();

    /** Total wavefront slots on the GPU. */
    std::uint32_t
    totalWaveSlots() const
    {
        return numCus * kSimdsPerCu * kWavesPerSimd;
    }
};

/** Sampling methodology parameters (paper Section 4 defaults). */
struct SamplingConfig
{
    /** Fraction of warps functionally simulated by online analysis. */
    double onlineSampleRate = 0.01;
    /** Minimum number of warps analysed online regardless of rate. */
    std::uint32_t onlineSampleMin = 8;
    /** Stability window for warp-sampling (last n warps). The paper
     *  uses 1024; scaled-down kernels need the larger default to span
     *  the memory system's fluctuation timescale. */
    std::uint32_t warpWindow = 2048;
    /** Stability window for basic-block-sampling (last n execs).
     *  Paper: 2048; see warpWindow for the recalibration rationale. */
    std::uint32_t bbWindow = 8192;
    /** Stability threshold delta. Paper: 0.03 on its full-scale
     *  workloads; recalibrated for this substrate's noise floor. */
    double delta = 0.08;
    /** Dominant warp-type share required to arm warp-sampling. */
    double dominantWarpRate = 0.95;
    /** Share of (weighted) BB executions that must be stable to switch. */
    double stableBbRate = 0.95;
    /** Consecutive throttled checks that must pass before switching —
     *  guards against transient false-stable windows. */
    std::uint32_t confirmChecks = 4;
    /** Fixed dimensionality of projected BBVs (paper uses 16). */
    std::uint32_t bbvDims = 16;
    /** Max warp clusters kept in a GPU BBV signature. */
    std::uint32_t gpuBbvClusters = 8;
    /** Normalised GPU BBV distance threshold for kernel matching. */
    double kernelMatchThreshold = 0.05;
    /** PKA: IPC variance threshold over its detection window. */
    double pkaVarianceThreshold = 0.25;
    /** PKA: IPC stability detection window in cycles. */
    Cycle pkaWindowCycles = 3000;
    /** Future-work extension from the paper: also end basic blocks at
     *  s_waitcnt so one block never mixes unrelated memory accesses. */
    bool bbSplitAtWaitcnt = false;
    /** Enable the three levels independently (paper Fig. 15 / 17). */
    bool enableKernelSampling = true;
    bool enableWarpSampling = true;
    bool enableBbSampling = true;
};

} // namespace photon

#endif // PHOTON_SIM_CONFIG_HPP
