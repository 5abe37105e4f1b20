/** @file Tests for the unified stability framework: StabilityDetector
 *  (rolling window, local-optimum guard, kernel-boundary reset) and the
 *  SwitchGovernor shared by the warp- and basic-block-level policies. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sampling/stability.hpp"
#include "sim/rng.hpp"

using namespace photon;
using namespace photon::sampling;

namespace {

/** Feed `count` points with execution time from `dur(i)`. */
void
feed(StabilityDetector &det, int count, double (*dur)(int), int offset = 0)
{
    for (int i = 0; i < count; ++i) {
        double issue = (offset + i) * 10.0;
        det.addPoint(issue, issue + dur(offset + i));
    }
}

} // namespace

TEST(StabilityDetector, NotStableBeforeFullHistory)
{
    StabilityDetector det(64, 0.05);
    feed(det, 127, [](int) { return 100.0; });
    EXPECT_FALSE(det.stable()); // needs 2n = 128 points
    det.addPoint(1280.0, 1380.0);
    EXPECT_TRUE(det.stable());
}

TEST(StabilityDetector, StationaryStreamIsStable)
{
    StabilityDetector det(64, 0.05);
    feed(det, 256, [](int) { return 100.0; });
    EXPECT_TRUE(det.stable());
    EXPECT_NEAR(det.meanExecTime(), 100.0, 1e-9);
}

TEST(StabilityDetector, NoisyStationaryStreamIsStable)
{
    StabilityDetector det(256, 0.05);
    Rng rng(5);
    for (int i = 0; i < 1024; ++i) {
        double issue = i * 10.0;
        double d = 100.0 + static_cast<double>(rng.nextBelow(9)) - 4.0;
        det.addPoint(issue, issue + d);
    }
    EXPECT_TRUE(det.stable());
}

TEST(StabilityDetector, RampIsNotStable)
{
    // Execution time doubles across the window: the mean guard fires.
    StabilityDetector det(64, 0.05);
    feed(det, 128, [](int i) { return 100.0 + i; });
    EXPECT_FALSE(det.stable());
}

TEST(StabilityDetector, StepChangeDetectedThenReconverges)
{
    StabilityDetector det(64, 0.05);
    feed(det, 128, [](int) { return 100.0; });
    EXPECT_TRUE(det.stable());
    // Level shift: previous-window mean disagrees.
    feed(det, 64, [](int) { return 200.0; }, 128);
    EXPECT_FALSE(det.stable());
    // After 2n points at the new level, stable again.
    feed(det, 128, [](int) { return 200.0; }, 192);
    EXPECT_TRUE(det.stable());
    EXPECT_NEAR(det.meanExecTime(), 200.0, 1e-9);
}

TEST(StabilityDetector, MeanWindowsTrackHistory)
{
    StabilityDetector det(4, 0.05);
    for (int i = 0; i < 4; ++i)
        det.addPoint(i, i + 10.0);
    for (int i = 4; i < 8; ++i)
        det.addPoint(i, i + 30.0);
    EXPECT_NEAR(det.meanExecTime(), 30.0, 1e-9);
    EXPECT_NEAR(det.previousMeanExecTime(), 10.0, 1e-9);
}

TEST(StabilityDetector, MeanFallsBackBeforeFullWindow)
{
    StabilityDetector det(64, 0.05);
    det.addPoint(0, 40);
    det.addPoint(10, 70); // durations 40 and 60
    EXPECT_NEAR(det.meanExecTime(), 50.0, 1e-9);
}

TEST(StabilityDetector, ExactThresholdDriftIsRejected)
{
    // The criterion is strict: |drift| < delta, so a drift of exactly
    // delta must not count as stable. With prev mean 100 and recent
    // mean 125, drift = 0.25 exactly (both representable).
    StabilityDetector det(4, 0.25);
    feed(det, 4, [](int) { return 100.0; });
    feed(det, 4, [](int) { return 125.0; }, 4);
    EXPECT_NEAR(det.relativeDrift(), 0.25, 1e-15);
    EXPECT_FALSE(det.stable());

    // An epsilon under the threshold is accepted.
    StabilityDetector det_lo(4, 0.25);
    feed(det_lo, 4, [](int) { return 100.0; });
    feed(det_lo, 4, [](int) { return 124.0; }, 4);
    EXPECT_TRUE(det_lo.stable());
}

TEST(StabilityDetector, TransientPlateauRejectedByLocalOptimumGuard)
{
    // A ramp followed by exactly n flat points: the most recent window
    // is perfectly flat, but the n-vs-2n comparison still sees the ramp
    // tail and must reject (the paper's local-optimum guard).
    StabilityDetector det(64, 0.05);
    feed(det, 64, [](int i) { return 100.0 + 2.0 * i; }); // ramps to 226
    feed(det, 64, [](int) { return 230.0; }, 64);
    EXPECT_FALSE(det.stable());
    // Another n flat points push the ramp out of the 2n history.
    feed(det, 64, [](int) { return 230.0; }, 128);
    EXPECT_TRUE(det.stable());
}

TEST(StabilityDetector, ResetForgetsAllHistory)
{
    // Kernel-boundary reset: observations from one kernel must never
    // vouch for the stability of the next.
    StabilityDetector det(64, 0.05);
    feed(det, 128, [](int) { return 100.0; });
    ASSERT_TRUE(det.stable());
    ASSERT_EQ(det.totalPoints(), 128u);

    det.reset();
    EXPECT_EQ(det.totalPoints(), 0u);
    EXPECT_FALSE(det.stable());
    EXPECT_EQ(det.meanExecTime(), 0.0);

    // A fresh stream must fill the full 2n again before stabilizing.
    feed(det, 127, [](int) { return 50.0; });
    EXPECT_FALSE(det.stable());
    det.addPoint(1280.0, 1330.0);
    EXPECT_TRUE(det.stable());
    EXPECT_NEAR(det.meanExecTime(), 50.0, 1e-9);
}

TEST(StabilityDetector, SnapshotFreezesState)
{
    StabilityDetector det(4, 0.05);
    feed(det, 8, [](int) { return 100.0; });
    StabilitySnapshot snap = det.snapshot();
    EXPECT_EQ(snap.points, 8u);
    EXPECT_TRUE(snap.stable);
    EXPECT_NEAR(snap.meanRecent, 100.0, 1e-9);
    EXPECT_NEAR(snap.meanPrev, 100.0, 1e-9);
    EXPECT_NEAR(snap.drift, 0.0, 1e-12);

    // The snapshot is a copy: later points do not mutate it.
    feed(det, 4, [](int) { return 900.0; }, 8);
    EXPECT_TRUE(snap.stable);
    EXPECT_FALSE(det.stable());
}

TEST(StabilityDetector, DeltaAccessorsRoundTrip)
{
    StabilityDetector det(128, 0.03);
    EXPECT_EQ(det.window(), 128u);
    EXPECT_NEAR(det.delta(), 0.03, 1e-15);
}

/** Parameterised: the delta threshold cleanly separates drift rates. */
class DeltaSweep : public ::testing::TestWithParam<double>
{};

TEST_P(DeltaSweep, DriftJustAboveDeltaRejected)
{
    double delta = GetParam();
    StabilityDetector det(128, delta);
    // Per-window relative drift slightly above/below delta.
    double grow_hi = (1.0 + 1.5 * delta);
    StabilityDetector det_lo(128, delta);
    double grow_lo = (1.0 + 0.3 * delta);
    for (int i = 0; i < 256; ++i) {
        double issue = i * 10.0;
        double scale_hi = i < 128 ? 1.0 : grow_hi;
        double scale_lo = i < 128 ? 1.0 : grow_lo;
        det.addPoint(issue, issue + 100.0 * scale_hi);
        det_lo.addPoint(issue, issue + 100.0 * scale_lo);
    }
    EXPECT_FALSE(det.stable());
    EXPECT_TRUE(det_lo.stable());
}

INSTANTIATE_TEST_SUITE_P(Deltas, DeltaSweep,
                         ::testing::Values(0.02, 0.05, 0.10, 0.20));

namespace {

/** The O(n) detector the running sums replaced, kept as the oracle:
 *  every point since the last reset is retained, and each accessor
 *  re-sums the last 2n points in chronological order. */
struct OracleDetector
{
    std::uint32_t n;
    double delta;
    std::vector<double> issue, retire;

    bool full() const { return issue.size() >= std::size_t{2} * n; }

    double
    sumExec(std::size_t from, std::size_t to) const
    {
        double sum = 0.0;
        for (std::size_t i = from; i < to; ++i)
            sum += retire[i] - issue[i];
        return sum;
    }
    double
    meanRecent() const
    {
        return full() ? sumExec(issue.size() - n, issue.size()) / n : 0.0;
    }
    double
    meanPrev() const
    {
        return full() ? sumExec(issue.size() - 2 * n, issue.size() - n) / n
                      : 0.0;
    }
    double
    drift() const
    {
        if (!full())
            return 0.0;
        double prev = meanPrev();
        return (meanRecent() - prev) / std::max(std::abs(prev), 1e-9);
    }
    bool stable() const { return full() && std::abs(drift()) < delta; }
    double
    meanExecTime() const
    {
        if (full())
            return meanRecent();
        if (issue.empty())
            return 0.0;
        return sumExec(0, issue.size()) / static_cast<double>(issue.size());
    }
    LineFit
    fit() const
    {
        if (!full())
            return LineFit{};
        std::vector<double> xs(issue.end() - n, issue.end());
        std::vector<double> ys(retire.end() - n, retire.end());
        return leastSquares(xs, ys);
    }
};

void
expectMatchesOracle(const StabilityDetector &det, const OracleDetector &o,
                    const std::string &what)
{
    ASSERT_EQ(det.totalPoints(), o.issue.size()) << what;
    EXPECT_EQ(det.stable(), o.stable()) << what;
    EXPECT_EQ(det.meanExecTime(), o.meanExecTime()) << what;
    EXPECT_EQ(det.relativeDrift(), o.drift()) << what;
    EXPECT_EQ(det.previousMeanExecTime(), o.meanPrev()) << what;
    LineFit fit = det.recentFit(), want = o.fit();
    EXPECT_EQ(fit.valid, want.valid) << what;
    EXPECT_EQ(fit.a, want.a) << what;
    EXPECT_EQ(fit.b, want.b) << what;
    StabilitySnapshot snap = det.snapshot();
    EXPECT_EQ(snap.points, o.issue.size()) << what;
    EXPECT_EQ(snap.slope, want.a) << what;
    EXPECT_EQ(snap.slopeValid, want.valid) << what;
    EXPECT_EQ(snap.drift, o.drift()) << what;
    EXPECT_EQ(snap.meanRecent, o.meanRecent()) << what;
    EXPECT_EQ(snap.meanPrev, o.meanPrev()) << what;
    EXPECT_EQ(snap.stable, o.stable()) << what;
}

} // namespace

TEST(StabilityDetector, RunningSumsMatchTheWindowScan)
{
    // Random integer-cycle streams (the simulator's times) through
    // windows from the minimum up, with level shifts so the drift
    // crosses delta both ways, and random resets so the fewer-than-2n
    // fallback recurs mid-stream. Every accessor must equal the O(n)
    // computation bit for bit after every point.
    Rng rng(17);
    for (std::uint32_t n : {2u, 3u, 5u, 16u, 64u}) {
        StabilityDetector det(n, 0.08);
        OracleDetector o{n, 0.08, {}, {}};
        double issue = static_cast<double>(rng.nextBelow(1u << 30));
        double level = 100.0;
        for (int i = 0; i < 40 * static_cast<int>(n) + 200; ++i) {
            std::string what =
                "n=" + std::to_string(n) + " point " + std::to_string(i);
            if (rng.nextBelow(150) == 0) {
                det.reset();
                o.issue.clear();
                o.retire.clear();
                expectMatchesOracle(det, o, what + " after reset");
            }
            if (rng.nextBelow(4 * n) == 0)
                level = static_cast<double>(1 + rng.nextBelow(200000));
            issue += static_cast<double>(rng.nextBelow(64));
            std::uint64_t noise = 1 + static_cast<std::uint64_t>(level) / 8;
            double exec = level + static_cast<double>(rng.nextBelow(noise));
            det.addPoint(issue, issue + exec);
            o.issue.push_back(issue);
            o.retire.push_back(issue + exec);
            expectMatchesOracle(det, o, what);
        }
    }
}

// ----- SwitchGovernor -----

TEST(SwitchGovernor, ThrottlesChecksToTheInterval)
{
    SwitchGovernor gov(8, 1);
    int calls = 0;
    auto always = [&] {
        ++calls;
        return true;
    };
    for (int i = 0; i < 7; ++i) {
        gov.recordEvent();
        EXPECT_FALSE(gov.poll(always));
    }
    EXPECT_EQ(calls, 0); // predicate never evaluated before interval
    gov.recordEvent();
    EXPECT_TRUE(gov.poll(always));
    EXPECT_EQ(calls, 1);
}

TEST(SwitchGovernor, RequiresConsecutiveConfirmations)
{
    SwitchGovernor gov(1, 3);
    auto stable = [] { return true; };
    auto unstable = [] { return false; };

    gov.recordEvent();
    EXPECT_FALSE(gov.poll(stable)); // 1 of 3
    gov.recordEvent();
    EXPECT_FALSE(gov.poll(stable)); // 2 of 3
    gov.recordEvent();
    EXPECT_FALSE(gov.poll(unstable)); // failed check resets the run
    EXPECT_EQ(gov.confirmations(), 0u);
    for (int i = 0; i < 2; ++i) {
        gov.recordEvent();
        EXPECT_FALSE(gov.poll(stable));
    }
    gov.recordEvent();
    EXPECT_TRUE(gov.poll(stable)); // 3 consecutive passes latch
}

TEST(SwitchGovernor, LatchIsOneWay)
{
    SwitchGovernor gov(1, 1);
    gov.recordEvent();
    ASSERT_TRUE(gov.poll([] { return true; }));
    // Once switched, the predicate is never consulted again.
    int calls = 0;
    EXPECT_TRUE(gov.poll([&] {
        ++calls;
        return false;
    }));
    EXPECT_EQ(calls, 0);
    EXPECT_TRUE(gov.switched());
}

TEST(SwitchGovernor, ResetUnlatches)
{
    SwitchGovernor gov(1, 1);
    gov.recordEvent();
    ASSERT_TRUE(gov.poll([] { return true; }));
    gov.reset();
    EXPECT_FALSE(gov.switched());
    EXPECT_EQ(gov.confirmations(), 0u);
    // The throttle restarts too: a poll right after reset is a no-op.
    EXPECT_FALSE(gov.poll([] { return true; }));
    gov.recordEvent();
    EXPECT_TRUE(gov.poll([] { return true; }));
}
