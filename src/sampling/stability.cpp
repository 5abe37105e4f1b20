#include "sampling/stability.hpp"

#include <algorithm>
#include <cmath>

#include "sim/log.hpp"

namespace photon::sampling {

StabilityDetector::StabilityDetector(std::uint32_t window, double delta)
    : window_(window), delta_(delta)
{
    PHOTON_ASSERT(window_ >= 2, "window too small");
    issue_.reserve(2 * window_);
    retire_.reserve(2 * window_);
}

void
StabilityDetector::addPoint(double issue_time, double retired_time)
{
    const std::size_t cap = std::size_t{2} * window_;
    const std::size_t pos = total_ % cap;
    // The oldest point leaves the 2n history (its slot is reused) and
    // the point n insertions back moves from the recent window to the
    // previous one.
    if (full())
        sumPrev_ -= retire_[pos] - issue_[pos];
    if (total_ >= window_) {
        const std::size_t mid = (total_ - window_) % cap;
        const double e = retire_[mid] - issue_[mid];
        sumRecent_ -= e;
        sumPrev_ += e;
    }
    if (issue_.size() < cap) {
        issue_.push_back(issue_time);
        retire_.push_back(retired_time);
    } else {
        issue_[pos] = issue_time;
        retire_[pos] = retired_time;
    }
    sumRecent_ += retired_time - issue_time;
    ++total_;
}

void
StabilityDetector::reset()
{
    issue_.clear();
    retire_.clear();
    total_ = 0;
    sumRecent_ = 0.0;
    sumPrev_ = 0.0;
}

bool
StabilityDetector::stable() const
{
    // Stability: the mean execution time of the last n points must
    // agree with the n before them (the paper's local-optimum guard,
    // promoted to the primary criterion). Within-window regression of
    // execution time against issue time is length-biased at this event
    // density — points enter the window at retire time, so long
    // executions are systematically paired with early issues — which is
    // why the across-window comparison carries the decision. The caller
    // adds persistence across several checks (SwitchGovernor).
    return full() && std::abs(relativeDrift()) < delta_;
}

LineFit
StabilityDetector::recentFit() const
{
    if (!full())
        return LineFit{};
    // The paper fits retired time against issue time over the last n
    // points and tests |a - 1| < delta; it interprets a ~ 1 as "the
    // execution time of basic blocks is not related to its issue time".
    // The fit is kept for reporting (Figures 3/4); see stable() for
    // why the decision itself uses window means at this event density.
    const std::size_t cap = std::size_t{2} * window_;
    std::vector<double> xs(window_), ys(window_);
    for (std::size_t i = 0; i < window_; ++i) {
        std::size_t pos = (total_ - window_ + i) % cap; // oldest first
        xs[i] = issue_[pos];
        ys[i] = retire_[pos];
    }
    return leastSquares(xs, ys);
}

double
StabilityDetector::meanExecTime() const
{
    if (full())
        return sumRecent_ / window_;
    // Not enough history for the windowed mean: fall back to all points.
    if (total_ == 0)
        return 0.0;
    return (sumRecent_ + sumPrev_) / static_cast<double>(total_);
}

double
StabilityDetector::relativeDrift() const
{
    if (!full())
        return 0.0;
    const double recent = sumRecent_ / window_;
    const double prev = sumPrev_ / window_;
    const double denom = std::max(std::abs(prev), 1e-9);
    return (recent - prev) / denom;
}

double
StabilityDetector::previousMeanExecTime() const
{
    return full() ? sumPrev_ / window_ : 0.0;
}

StabilitySnapshot
StabilityDetector::snapshot() const
{
    StabilitySnapshot s;
    s.points = total_;
    LineFit fit = recentFit();
    s.slope = fit.a;
    s.slopeValid = fit.valid;
    s.drift = relativeDrift();
    s.meanRecent = full() ? meanExecTime() : 0.0;
    s.meanPrev = previousMeanExecTime();
    s.stable = stable();
    return s;
}

} // namespace photon::sampling
