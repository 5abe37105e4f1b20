/**
 * @file
 * Architectural state of one wavefront plus the launch geometry shared by
 * all wavefronts of a kernel.
 */

#ifndef PHOTON_FUNC_WAVE_STATE_HPP
#define PHOTON_FUNC_WAVE_STATE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "isa/builder.hpp"
#include "isa/program.hpp"
#include "sim/types.hpp"

namespace photon::func {

/** Geometry and arguments of one kernel launch. */
struct LaunchDims
{
    std::uint32_t numWorkgroups = 1;
    std::uint32_t wavesPerWorkgroup = 4; ///< workgroup size / 64
    Addr kernargBase = 0;

    std::uint32_t
    totalWaves() const
    {
        return numWorkgroups * wavesPerWorkgroup;
    }

    std::uint32_t
    workgroupSize() const
    {
        return wavesPerWorkgroup * kWavefrontLanes;
    }
};

/**
 * Register and control state of one wavefront. VGPRs are stored
 * register-major: vgpr[r * 64 + lane].
 */
struct WaveState
{
    // Identity.
    WarpId warpId = 0;
    WorkgroupId workgroupId = 0;
    std::uint32_t waveInGroup = 0;

    // Control.
    std::uint32_t pc = 0;
    bool done = false;
    bool scc = false;
    std::uint64_t vcc = 0;
    std::uint64_t exec = ~std::uint64_t{0};
    std::array<std::uint64_t, isa::kMaxMaskRegs> maskRegs{};

    // Register files.
    std::array<std::uint32_t, isa::kMaxSgprs> sgpr{};
    std::vector<std::uint32_t> vgpr; ///< numVgprs x 64 lanes

    /** Initialise identity and control flow only: all a wavefront
     *  stepped by a trace replay cursor reads or writes. */
    void
    initControl(const LaunchDims &dims, WarpId warp)
    {
        warpId = warp;
        workgroupId = warp / dims.wavesPerWorkgroup;
        waveInGroup = warp % dims.wavesPerWorkgroup;
        pc = 0;
        done = false;
        exec = ~std::uint64_t{0};
    }

    /** Initialise registers for the dispatcher's calling convention. */
    void
    init(const isa::Program &program, const LaunchDims &dims, WarpId warp)
    {
        initControl(dims, warp);
        scc = false;
        vcc = 0;
        maskRegs.fill(0);
        sgpr.fill(0);
        sgpr[isa::kSgprWorkgroupId] = workgroupId;
        sgpr[isa::kSgprWaveInGroup] = waveInGroup;
        sgpr[isa::kSgprKernargBase] =
            static_cast<std::uint32_t>(dims.kernargBase);
        vgpr.assign(std::size_t{program.numVgprs()} * kWavefrontLanes, 0);
        for (unsigned lane = 0; lane < kWavefrontLanes; ++lane) {
            vgpr[std::size_t{isa::kVgprLocalId} * kWavefrontLanes + lane] =
                waveInGroup * kWavefrontLanes + lane;
        }
    }

    std::uint32_t &
    v(std::uint32_t reg, std::uint32_t lane)
    {
        return vgpr[std::size_t{reg} * kWavefrontLanes + lane];
    }

    std::uint32_t
    v(std::uint32_t reg, std::uint32_t lane) const
    {
        return vgpr[std::size_t{reg} * kWavefrontLanes + lane];
    }

    bool
    laneActive(std::uint32_t lane) const
    {
        return (exec >> lane) & 1;
    }
};

} // namespace photon::func

#endif // PHOTON_FUNC_WAVE_STATE_HPP
