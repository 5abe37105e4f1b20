/**
 * @file
 * The unified stability framework shared by every online sampling level
 * (paper Sections 4.1/4.2): one rolling StabilityDetector implementation
 * plus the SwitchGovernor that turns raw per-window stability into a
 * persistent switch decision. Warp- and basic-block-detection are thin
 * policies over these two pieces; nothing in here knows which level it
 * serves.
 *
 * A unit of work (warp or basic block) is stable when the mean
 * execution time over the most recent n observations differs from the
 * mean over the n before them by less than delta (the paper's
 * local-optimum guard). The paper's slope test |a - 1| < delta on
 * retired-time vs issue-time is computed for telemetry only;
 * StabilityDetector::stable() says why it does not decide.
 */

#ifndef PHOTON_SAMPLING_STABILITY_HPP
#define PHOTON_SAMPLING_STABILITY_HPP

#include <cstdint>
#include <vector>

#include "sampling/least_squares.hpp"

namespace photon::sampling {

/**
 * Frozen view of a detector's state, taken when the control plane makes
 * a switch decision. Everything the telemetry spine reports about a
 * detector comes through here, so the detector itself never leaks into
 * result records.
 */
struct StabilitySnapshot
{
    std::uint64_t points = 0;  ///< observations recorded so far
    double slope = 0.0;        ///< least-squares a over the last n
    bool slopeValid = false;   ///< false before the window fills
    double drift = 0.0;        ///< relative mean drift across windows
    double meanRecent = 0.0;   ///< mean exec time, last n points
    double meanPrev = 0.0;     ///< mean exec time, previous n points
    bool stable = false;       ///< stable() held at capture time
};

/**
 * Rolling (issue, retire) window with the paper's stability criterion.
 * Holds the last 2n points in a ring buffer and keeps running sums of
 * execution time over the last n points and the n before them, so the
 * stability check and the means are O(1); only the least-squares fit
 * (recentFit(), snapshot()) walks the window.
 *
 * The sums are exact, and so equal a fresh sum in any order, when the
 * times are integer-valued and every sum stays below 2^53: simulated
 * cycles are.
 */
class StabilityDetector
{
  public:
    /**
     * @param window the paper's n (1024 for warps, 2048 for blocks)
     * @param delta the stability threshold (paper: 0.03)
     */
    StabilityDetector(std::uint32_t window, double delta);

    /** Record one completed execution. */
    void addPoint(double issue_time, double retired_time);

    /** Forget all history (kernel-boundary reset: observations from one
     *  kernel must never vouch for the stability of the next). */
    void reset();

    /** Observations recorded so far (every point, though only the
     *  last 2n are retained). */
    std::uint64_t totalPoints() const { return total_; }

    /** True when the full 2n history is held and the mean execution
     *  time drifts by less than delta across its two halves. */
    bool stable() const;

    /** Slope over the most recent n points (NaN-free; valid flag).
     *  O(n): only telemetry reads it. */
    LineFit recentFit() const;

    /** Mean execution time (retire - issue) over the last n points. */
    double meanExecTime() const;

    /** Relative drift of execution time across the last n points (the
     *  quantity tested against delta). */
    double relativeDrift() const;

    /** Mean execution time over the n points preceding the last n. */
    double previousMeanExecTime() const;

    /** Freeze the current state for telemetry. */
    StabilitySnapshot snapshot() const;

    std::uint32_t window() const { return window_; }
    double delta() const { return delta_; }

  private:
    /** The full 2n history is held (the local-optimum guard needs it). */
    bool full() const { return total_ >= std::uint64_t{2} * window_; }

    std::uint32_t window_;
    double delta_;
    std::vector<double> issue_;  ///< ring of 2n
    std::vector<double> retire_; ///< ring of 2n
    std::uint64_t total_ = 0;
    /** Execution time (retire - issue) summed over the last n points,
     *  and over the up to n retained points before them. */
    double sumRecent_ = 0.0;
    double sumPrev_ = 0.0;
};

/**
 * Turns a stream of stability observations into a one-way switch
 * decision: polls are throttled to one per @p check_interval events,
 * and the stable condition must hold for @p confirm_checks consecutive
 * polls before the governor latches (a single window can look stable
 * transiently while the memory system is still ramping). Shared by the
 * warp- and basic-block-level policies, which previously each carried a
 * private copy of this logic.
 */
class SwitchGovernor
{
  public:
    SwitchGovernor(std::uint64_t check_interval,
                   std::uint32_t confirm_checks)
        : checkInterval_(check_interval), confirmChecks_(confirm_checks)
    {}

    /** One observation arrived (advances the poll throttle). */
    void recordEvent() { ++eventsSinceCheck_; }

    /**
     * Throttled poll. @p stable_now is only invoked when a check is
     * actually due, so callers can pass an O(n) predicate. Returns the
     * latched state.
     */
    template <typename StableFn>
    bool
    poll(StableFn &&stable_now)
    {
        if (switched_)
            return true;
        if (eventsSinceCheck_ < checkInterval_)
            return false;
        eventsSinceCheck_ = 0;
        if (stable_now()) {
            if (++confirmations_ >= confirmChecks_)
                switched_ = true;
        } else {
            confirmations_ = 0;
        }
        return switched_;
    }

    bool switched() const { return switched_; }
    std::uint32_t confirmations() const { return confirmations_; }

    /** Kernel-boundary reset: unlatch and restart the persistence run. */
    void
    reset()
    {
        eventsSinceCheck_ = 0;
        confirmations_ = 0;
        switched_ = false;
    }

  private:
    std::uint64_t checkInterval_;
    std::uint32_t confirmChecks_;
    std::uint64_t eventsSinceCheck_ = 0;
    std::uint32_t confirmations_ = 0;
    bool switched_ = false;
};

} // namespace photon::sampling

#endif // PHOTON_SAMPLING_STABILITY_HPP
