/**
 * @file
 * single_kernel: one question at a time, the way a user runs
 * `photon_sim --compare`. Each single-kernel Table 2 app runs on a fresh
 * r9nano Platform in full detail and then under Photon, on one thread.
 * Host times are thread CPU time of that one thread.
 *
 * Sizes keep both sides of Photon's decision: sc and relu switch at
 * these sizes, mm 256, spmv, fir and aes do not (zero-switch overhead).
 * mm runs at 256 instead of the CLI default 512 because 512 alone costs
 * about 12 s per full+Photon pair, which would leave one repetition per
 * run.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "perfbench.hpp"
#include "sampling/telemetry.hpp"

namespace perfbench {

using photon::driver::Platform;
using photon::driver::SimMode;
namespace wl = photon::workloads;

namespace {

std::vector<App>
singleKernelApps(std::uint64_t seed)
{
    return {
        {"mm256", "r9nano", [] { return wl::makeMm(256); }},
        {"spmv512", "r9nano",
         [seed] { return wl::makeSpmv(512 * 64, 64, seed); }},
        {"fir4096", "r9nano", [] { return wl::makeFir(4096); }},
        {"aes2048", "r9nano", [] { return wl::makeAes(2048); }},
        {"sc16384", "r9nano", [] { return wl::makeSc(16384); }},
        {"relu16384", "r9nano", [] { return wl::makeRelu(16384); }},
    };
}

/** Predicted totals and per-level counts of one platform, plus a
 *  digest of every simulated number for equality checks. */
struct RunNumbers
{
    std::uint64_t cycles = 0;
    std::uint32_t levels[4] = {};
    std::string digest;
};

RunNumbers
runNumbers(const Platform &platform)
{
    RunNumbers n;
    std::ostringstream d;
    for (const photon::driver::LaunchResult &l : platform.launchLog()) {
        n.cycles += l.sample.cycles;
        ++n.levels[static_cast<int>(l.sample.level)];
        d << l.sample.cycles << '/' << l.sample.insts << '/'
          << static_cast<int>(l.sample.level) << ' ';
    }
    const photon::StatRegistry stats = platform.stats();
    for (const auto &[key, value] : stats.values())
        if (key.rfind("mem.", 0) == 0 || key.rfind("gpu.", 0) == 0)
            d << key << '=' << value << ' ';
    n.digest = d.str();
    return n;
}

/** One app on one fresh Platform. */
struct AppRun
{
    RunNumbers numbers;
    double setupCpu = 0.0;
    double runCpu = 0.0;
    double launchWall = 0.0; ///< sum of LaunchResult::wallSeconds
    std::uint64_t traceCaptures = 0;
    std::uint64_t traceHits = 0;
    std::uint64_t traceMisses = 0;
};

AppRun
runApp(const App &app, SimMode mode, Tracer &tracer, Report &report)
{
    const bool full = mode == SimMode::FullDetailed;
    auto pass_span = tracer.span(full ? "single.full" : "single.photon",
                                 app.name);
    AppRun r;
    double c0 = threadCpuNow();
    std::unique_ptr<Platform> platform;
    wl::WorkloadPtr w;
    {
        auto s = tracer.span("driver.setup", app.name);
        platform = std::make_unique<Platform>(gpuByName(app.gpu), mode);
        w = app.make();
        w->setup(*platform);
    }
    double c1 = threadCpuNow();
    for (const wl::LaunchSpec &l : w->launches()) {
        auto s = tracer.span("driver.launch", app.name);
        r.launchWall += platform
                            ->launch(l.program, l.numWorkgroups,
                                     l.wavesPerWorkgroup, l.kernarg,
                                     l.label)
                            .wallSeconds;
    }
    double c2 = threadCpuNow();
    r.setupCpu = c1 - c0;
    r.runCpu = c2 - c1;
    r.numbers = runNumbers(*platform);
    r.traceCaptures = platform->traceCaptures();
    r.traceHits = platform->traceHits();
    r.traceMisses = platform->traceMisses();
    if (full)
        report.op(w->check(*platform),
                  app.name + ": full-detail output fails Workload::check");
    return r;
}

/** One full pass then one Photon pass over every app. */
struct Rep
{
    double setup = 0.0;
    double full = 0.0;
    double photon = 0.0;
    double launchWall = 0.0;
    std::vector<AppRun> fullRuns;
    std::vector<AppRun> photonRuns;
    std::string digest;
    /** Host slowdown sampled during the full pass, the Photon pass and
     *  the whole repetition. */
    double fullSlowdown = 1.0;
    double photonSlowdown = 1.0;
    double slowdown = 1.0;
};

Rep
runRep(const std::vector<App> &apps, Tracer &tracer, Report &report,
       const HostSpeedSampler &speed)
{
    Rep rep;
    const double r0 = wallNow();
    for (SimMode mode : {SimMode::FullDetailed, SimMode::Photon}) {
        const double p0 = wallNow();
        for (const App &app : apps) {
            AppRun r = runApp(app, mode, tracer, report);
            rep.setup += r.setupCpu;
            (mode == SimMode::FullDetailed ? rep.full : rep.photon) +=
                r.runCpu;
            rep.launchWall += r.launchWall;
            rep.digest += app.name + ":" + r.numbers.digest + "|";
            (mode == SimMode::FullDetailed ? rep.fullRuns : rep.photonRuns)
                .push_back(std::move(r));
        }
        (mode == SimMode::FullDetailed ? rep.fullSlowdown
                                       : rep.photonSlowdown) =
            speed.slowdown(p0, wallNow());
    }
    rep.slowdown = speed.slowdown(r0, wallNow());
    return rep;
}

} // namespace

void
runSingleKernel(const Options &options, Report &report, Tracer &on)
{
    const std::vector<App> apps = singleKernelApps(options.seed);
    Tracer off(false);

    std::vector<Rep> untraced, traced;
    std::string first_digest;
    HostSpeedSampler speed;
    const double t0 = wallNow();
    // Untraced runs measure; traced runs alternate untraced and traced
    // repetitions so the tracing overhead is measured in one process.
    while (untraced.empty() || wallNow() - t0 < options.seconds ||
           (options.trace && traced.empty())) {
        const bool trace_this =
            options.trace && untraced.size() > traced.size();
        Rep rep = runRep(apps, trace_this ? on : off, report, speed);
        if (first_digest.empty())
            first_digest = rep.digest;
        else
            report.op(rep.digest == first_digest,
                      "single_kernel: simulated numbers differ between "
                      "repetitions (traced vs untraced or repeat)");
        (trace_this ? traced : untraced).push_back(std::move(rep));
    }
    const double slowdown = speed.slowdown(t0, wallNow());

    // Each repetition's pass time is divided by the host slowdown
    // sampled during that pass; the gated figures are the medians over
    // repetitions. The named figures are the raw medians.
    std::vector<double> setup, full, photon, setup_n, full_n, photon_n,
        launch;
    for (const Rep &r : untraced) {
        setup.push_back(r.setup);
        full.push_back(r.full);
        photon.push_back(r.photon);
        setup_n.push_back(r.setup / r.slowdown);
        full_n.push_back(r.full / r.fullSlowdown);
        photon_n.push_back(r.photon / r.photonSlowdown);
        launch.push_back(r.launchWall);
    }
    const double setup_s = median(setup);
    const double full_s = median(full);
    const double photon_s = median(photon);
    report.samples["host_slowdown"] = speed.between(t0, wallNow());
    report.samples["setup_s"] = setup;
    report.samples["full_s"] = full;
    report.samples["photon_s"] = photon;

    // Accuracy from the first repetition (all repetitions are equal).
    const Rep &ref = untraced.front();
    double err_sum = 0.0, err_max = 0.0;
    std::uint64_t photon_launches = 0, kernel_hits = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double f = static_cast<double>(ref.fullRuns[i].numbers.cycles);
        const double p =
            static_cast<double>(ref.photonRuns[i].numbers.cycles);
        const double e = 100.0 * std::abs(p - f) / f;
        err_sum += e;
        err_max = std::max(err_max, e);
        report.deterministic[apps[i].name + ".full_cycles"] = f;
        report.deterministic[apps[i].name + ".photon_cycles"] = p;
        report.deterministic[apps[i].name + ".error_pct"] = e;
        for (int lv = 0; lv < 4; ++lv)
            photon_launches += ref.photonRuns[i].numbers.levels[lv];
        kernel_hits += ref.photonRuns[i].numbers.levels[1];
    }
    const double err_mean = err_sum / static_cast<double>(apps.size());

    auto e2e = [&](const std::string &name, double v, const char *unit) {
        report.endToEnd[name] = Metric{v, unit};
    };
    e2e("setup_s", median(setup_n), "s");
    e2e("slow_s", median(full_n), "s");
    e2e("fast_s", median(photon_n), "s");
    e2e("error_pct", err_mean, "%");
    e2e("error_max_pct", err_max, "%");
    report.named["setup_s"] = {setup_s, "s"};
    report.named["full_s"] = {full_s, "s"};
    report.named["photon_s"] = {photon_s, "s"};
    report.named["host_slowdown"] = {slowdown, "x"};
    report.named["photon_error_pct"] = {err_mean, "%"};
    report.named["photon_error_max_pct"] = {err_max, "%"};

    if (!options.trace)
        return;

    std::vector<ProbeApp> probe_apps;
    for (std::size_t i = 0; i < apps.size(); ++i)
        probe_apps.push_back({apps[i], ref.fullRuns[i].numbers.cycles, 0,
                              ref.photonRuns[i].numbers.cycles, false});
    ProbeResult probe = probeLayers(probe_apps, on, report);
    reportProbe(probe, report);

    std::uint64_t captures = 0, hits = 0, misses = 0;
    for (const auto *runs : {&ref.fullRuns, &ref.photonRuns}) {
        for (const AppRun &r : *runs) {
            captures += r.traceCaptures;
            hits += r.traceHits;
            misses += r.traceMisses;
        }
    }
    auto layer = [&](const std::string &name, double v, const char *unit) {
        report.perLayer[name] = Metric{v, unit};
    };
    layer("func.trace_captures", static_cast<double>(captures), "count");
    layer("func.trace_hits", static_cast<double>(hits), "count");
    layer("func.trace_misses", static_cast<double>(misses), "count");
    layer("func.trace_hit_ratio",
          hits + misses ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0,
          "frac");
    layer("sampling.kernel_hit_ratio",
          photon_launches ? static_cast<double>(kernel_hits) /
                                static_cast<double>(photon_launches)
                          : 0.0,
          "frac");
    layer("driver.launch_s", median(launch), "s");
    layer("driver.setup_s", setup_s, "s");

    std::vector<double> traced_total, untraced_total;
    for (const Rep &r : traced)
        traced_total.push_back(r.setup + r.full + r.photon);
    for (const Rep &r : untraced)
        untraced_total.push_back(r.setup + r.full + r.photon);
    layer("trace_overhead_frac",
          median(traced_total) / median(untraced_total) - 1.0, "frac");
}

} // namespace perfbench
