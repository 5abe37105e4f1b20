/**
 * @file
 * Observation hooks the sampling layer attaches to a detailed simulation.
 * The timing model pushes wavefront, instruction and basic-block events;
 * the monitor may ask the run loop to stop dispatching new work (the
 * "switch to sampling" decision).
 */

#ifndef PHOTON_TIMING_MONITOR_HPP
#define PHOTON_TIMING_MONITOR_HPP

#include <cstdint>

#include "func/emulator.hpp"
#include "isa/basic_block.hpp"
#include "sim/types.hpp"

namespace photon::timing {

/**
 * Coarse phases of one detailed kernel run, pushed through the hook
 * interface so an observer can scope its bookkeeping to a kernel
 * without knowing anything about the run loop:
 *
 *   Launch ─► Detailed ─► (Draining) ─► Complete
 *
 * Draining is only entered when the observer's wantsStop() fired: new
 * workgroup dispatch halts and resident wavefronts run to completion.
 */
enum class KernelPhase
{
    Launch,   ///< kernel accepted; nothing dispatched yet
    Detailed, ///< the run loop is executing instructions
    Draining, ///< dispatch halted after a stop request; residents drain
    Complete, ///< the run loop exited (normally or after a drain)
};

/** Human-readable phase name. */
const char *kernelPhaseName(KernelPhase phase);

/**
 * Base class for kernel-execution observers — the narrow hook interface
 * between the timing data plane and any control plane above it. All
 * callbacks default to no-ops so monitors only override what they need.
 * This header is the only coupling point: the timing layer knows no
 * concrete observer type, and observers see the data plane exclusively
 * through these events.
 */
class KernelMonitor
{
  public:
    virtual ~KernelMonitor() = default;

    /** The run entered a new phase (see KernelPhase). Emitted from the
     *  run loop thread, in phase order, once per transition. */
    virtual void
    onKernelPhase(KernelPhase phase, Cycle now)
    {
        (void)phase;
        (void)now;
    }

    /** A wavefront was scheduled onto a compute unit. */
    virtual void
    onWaveDispatched(WarpId warp, Cycle now)
    {
        (void)warp;
        (void)now;
    }

    /** A wavefront executed s_endpgm. */
    virtual void
    onWaveRetired(WarpId warp, Cycle now, std::uint64_t inst_count)
    {
        (void)warp;
        (void)now;
        (void)inst_count;
    }

    /** One instruction issued; @p complete is the cycle its result is
     *  ready (memory included). */
    virtual void
    onInstruction(WarpId warp, const func::StepResult &result, Cycle issue,
                  Cycle complete)
    {
        (void)warp;
        (void)result;
        (void)issue;
        (void)complete;
    }

    /** One dynamic basic-block execution finished. Per the paper, the
     *  execution time of a block is the interval between the issue of its
     *  first instruction and the issue of the next block's first
     *  instruction. @p active_lanes is the EXEC population at the
     *  block's first instruction — divergence changes a block's memory
     *  footprint, so the samplers track it. */
    virtual void
    onBbExecuted(WarpId warp, isa::BbId bb, Cycle issue, Cycle retire,
                 std::uint32_t active_lanes)
    {
        (void)warp;
        (void)bb;
        (void)issue;
        (void)retire;
        (void)active_lanes;
    }

    /** Polled by the run loop; return true to stop dispatching new
     *  workgroups (resident ones drain). */
    virtual bool
    wantsStop(Cycle now)
    {
        (void)now;
        return false;
    }
};

} // namespace photon::timing

#endif // PHOTON_TIMING_MONITOR_HPP
