/**
 * @file
 * The per-layer probe: replays each app's launch sequence through the
 * library's layer entry points one call at a time, so the traced run
 * can say where simulation time goes without instrumenting src/.
 */

#include <memory>

#include "func/warp_trace.hpp"
#include "isa/basic_block.hpp"
#include "perfbench.hpp"
#include "sampling/analysis.hpp"
#include "timing/interval_backend.hpp"

namespace perfbench {

using photon::driver::Platform;
using photon::driver::SimMode;

namespace {

/** One Platform with its own copy of the app's inputs. */
struct Instance
{
    std::unique_ptr<Platform> platform;
    photon::workloads::WorkloadPtr workload;

    Instance(const App &app, SimMode mode,
             photon::timing::BackendKind backend)
        : platform(std::make_unique<Platform>(gpuByName(app.gpu), mode,
                                              photon::SamplingConfig{},
                                              backend)),
          workload(app.make())
    {
        workload->setup(*platform);
    }

    photon::func::LaunchDims
    dims(std::size_t i) const
    {
        const photon::workloads::LaunchSpec &l = workload->launches()[i];
        photon::func::LaunchDims d;
        d.numWorkgroups = l.numWorkgroups;
        d.wavesPerWorkgroup = l.wavesPerWorkgroup;
        d.kernargBase = l.kernarg;
        return d;
    }

    const photon::isa::Program &
    program(std::size_t i) const
    {
        return *workload->launches()[i].program;
    }
};

void
addStats(std::map<std::string, double> &into, const Platform &platform,
         const std::string &prefix)
{
    const photon::StatRegistry stats = platform.stats();
    for (const auto &[key, value] : stats.values())
        if (key.rfind(prefix, 0) == 0)
            into[key] += value;
}

} // namespace

ProbeResult
probeLayers(const std::vector<ProbeApp> &apps, Tracer &tracer,
            Report &report)
{
    using photon::timing::BackendKind;
    ProbeResult res;
    const photon::SamplingConfig cfg{};

    for (const ProbeApp &pa : apps) {
        const std::string id = pa.app.name + "@" + pa.app.gpu;
        auto app_span = tracer.span("probe.app", id);
        Instance full(pa.app, SimMode::FullDetailed, BackendKind::Detailed);
        Instance interval(pa.app, SimMode::FullDetailed,
                          BackendKind::Interval);
        Instance analysis(pa.app, SimMode::FullDetailed,
                          BackendKind::Detailed);
        Instance photon(pa.app, SimMode::Photon, BackendKind::Detailed);

        ProbePoint pt;
        pt.app = pa.app.name;
        pt.gpu = pa.app.gpu;
        const std::size_t n = full.workload->launches().size();
        for (std::size_t i = 0; i < n; ++i) {
            const photon::func::LaunchDims dims = full.dims(i);
            double t0 = wallNow();
            photon::func::LaunchTracePtr trace;
            {
                auto s = tracer.span("func.capture", id);
                trace = photon::func::captureLaunchTrace(
                    full.program(i), dims, full.platform->mem());
            }
            double t1 = wallNow();
            photon::timing::RunOptions opts;
            opts.replay = trace.get();
            photon::timing::RunOutcome det;
            {
                auto s = tracer.span("timing.detailed", id);
                det = full.platform->gpu().runKernel(
                    full.program(i), dims, full.platform->mem(), nullptr,
                    opts);
            }
            double t2 = wallNow();
            res.captureSeconds += t1 - t0;
            res.detailedSeconds += t2 - t1;
            pt.fullSeconds += t2 - t0;
            res.traceBytes += trace->byteSize();
            pt.detailedCycles += det.cycles();
            res.detailedInsts += det.instsIssued;

            // Replay never writes memory: land the launch's stores
            // first, as Platform does on a trace hit.
            photon::func::applyAllStores(*trace, interval.platform->mem());
            double t3 = wallNow();
            photon::timing::RunOutcome iv;
            {
                auto s = tracer.span("timing.interval", id);
                iv = interval.platform->interval()->runKernel(
                    interval.program(i), dims, interval.platform->mem(),
                    nullptr, opts);
            }
            res.intervalSeconds += wallNow() - t3;
            pt.intervalCycles += iv.cycles();

            // A fresh Photon Platform finds no trace and emulates its
            // analysis; only a shared store hands it the capture.
            const photon::func::LaunchTrace *photon_trace =
                pa.photonReplays ? trace.get() : nullptr;
            photon::isa::BasicBlockTable bbs(analysis.program(i),
                                             cfg.bbSplitAtWaitcnt);
            double t4 = wallNow();
            photon::sampling::OnlineAnalysis an;
            {
                auto s = tracer.span("sampling.analysis", id);
                an = photon::sampling::analyzeKernel(
                    analysis.program(i), bbs, dims,
                    analysis.platform->mem(), cfg, photon_trace);
            }
            res.analysisSeconds += wallNow() - t4;
            res.analysisInsts += an.sampledInsts;
            photon::func::applyAllStores(*trace, analysis.platform->mem());

            double t5 = wallNow();
            photon::sampling::KernelRunResult ph;
            {
                auto s = tracer.span("sampling.photon", id);
                ph = photon.platform->photon()->runKernel(
                    photon.program(i), dims, photon.platform->mem(),
                    photon_trace);
            }
            double t6 = wallNow();
            res.photonSeconds += t6 - t5;
            pt.photonSeconds += t6 - t5;
            pt.photonCycles += ph.cycles;
            ++res.levels[static_cast<int>(ph.level)];
            pt.switched |= ph.level != photon::sampling::SampleLevel::Full;
            res.residentAtSwitch += ph.telemetry.residentAtSwitch;
            res.detailedWarps += ph.telemetry.detailedWarps;
            res.totalWarps += ph.telemetry.totalWarps;
        }
        res.detailedCycles += pt.detailedCycles;
        addStats(res.memStats, *full.platform, "mem.");
        addStats(res.intervalStats, *interval.platform, "interval.");

        if (pa.expectFullCycles)
            report.op(pt.detailedCycles == pa.expectFullCycles,
                      "probe detailed replay of " + id + " gave " +
                          std::to_string(pt.detailedCycles) +
                          " cycles, Platform full launch gave " +
                          std::to_string(pa.expectFullCycles));
        if (pa.expectIntervalCycles)
            report.op(pt.intervalCycles == pa.expectIntervalCycles,
                      "probe interval run of " + id + " gave " +
                          std::to_string(pt.intervalCycles) +
                          " cycles, Platform interval launch gave " +
                          std::to_string(pa.expectIntervalCycles));
        if (pa.expectPhotonCycles)
            report.op(pt.photonCycles == pa.expectPhotonCycles,
                      "probe Photon run of " + id + " gave " +
                          std::to_string(pt.photonCycles) +
                          " cycles, Platform Photon launch gave " +
                          std::to_string(pa.expectPhotonCycles));
        res.points.push_back(pt);
    }
    return res;
}

void
intervalAccuracy(const std::vector<ProbePoint> &points, double &error_pct,
                 double &rank_tau)
{
    double err = 0.0;
    std::map<std::string, std::pair<std::vector<double>,
                                    std::vector<double>>> by_app;
    for (const ProbePoint &p : points) {
        err += std::abs(static_cast<double>(p.intervalCycles) -
                        static_cast<double>(p.detailedCycles)) /
               static_cast<double>(p.detailedCycles);
        by_app[p.app].first.push_back(static_cast<double>(p.detailedCycles));
        by_app[p.app].second.push_back(
            static_cast<double>(p.intervalCycles));
    }
    error_pct = points.empty() ? 0.0
                               : 100.0 * err /
                                     static_cast<double>(points.size());
    double tau = 0.0;
    int ranked = 0;
    for (const auto &[app, cycles] : by_app) {
        if (cycles.first.size() < 2)
            continue;
        tau += kendallTau(cycles.first, cycles.second);
        ++ranked;
    }
    rank_tau = ranked ? tau / ranked : 0.0;
}

void
reportProbe(const ProbeResult &probe, Report &report)
{
    auto put = [&](const std::string &name, double value,
                   const std::string &unit) {
        report.perLayer[name] = Metric{value, unit};
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto stat = [](const std::map<std::string, double> &m,
                   const std::string &key) {
        auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
    };

    put("func.capture_s", probe.captureSeconds, "s");
    put("func.trace_bytes", static_cast<double>(probe.traceBytes), "bytes");
    put("timing.detailed_s", probe.detailedSeconds, "s");
    put("timing.detailed_minst_per_s",
        ratio(static_cast<double>(probe.detailedInsts) * 1e-6,
              probe.detailedSeconds),
        "Minst/s");
    put("timing.detailed_cycles", static_cast<double>(probe.detailedCycles),
        "cycles");
    put("timing.detailed_insts", static_cast<double>(probe.detailedInsts),
        "count");
    const auto &m = probe.memStats;
    put("timing.l1v_hit_ratio",
        ratio(stat(m, "mem.l1v.hits"),
              stat(m, "mem.l1v.hits") + stat(m, "mem.l1v.misses")),
        "frac");
    put("timing.l2_hit_ratio",
        ratio(stat(m, "mem.l2.hits"),
              stat(m, "mem.l2.hits") + stat(m, "mem.l2.misses")),
        "frac");
    put("timing.dram_accesses", stat(m, "mem.dram.accesses"), "count");
    put("timing.interval_s", probe.intervalSeconds, "s");
    const auto &iv = probe.intervalStats;
    put("timing.interval_l1_hit_ratio",
        ratio(stat(iv, "interval.l1_hits"),
              stat(iv, "interval.l1_hits") + stat(iv, "interval.l1_misses")),
        "frac");
    put("timing.interval_dram_lines", stat(iv, "interval.dram_lines"),
        "count");
    double ierr = 0.0, tau = 0.0;
    intervalAccuracy(probe.points, ierr, tau);
    put("timing.interval_error_pct", ierr, "%");
    put("timing.interval_rank_tau", tau, "tau");

    put("sampling.analysis_s", probe.analysisSeconds, "s");
    put("sampling.analysis_insts", static_cast<double>(probe.analysisInsts),
        "count");
    put("sampling.photon_s", probe.photonSeconds, "s");
    double full_unswitched = 0.0, photon_unswitched = 0.0;
    std::vector<double> speedups;
    for (const ProbePoint &p : probe.points) {
        speedups.push_back(ratio(p.fullSeconds, p.photonSeconds));
        if (!p.switched) {
            full_unswitched += p.fullSeconds;
            photon_unswitched += p.photonSeconds;
        }
    }
    put("sampling.overhead_frac",
        ratio(photon_unswitched - full_unswitched, full_unswitched), "frac");
    put("sampling.speedup_vs_full", geomean(speedups), "x");
    put("sampling.detailed_warp_frac",
        ratio(static_cast<double>(probe.detailedWarps),
              static_cast<double>(probe.totalWarps)),
        "frac");
    put("sampling.level_full", probe.levels[0], "count");
    put("sampling.level_kernel", probe.levels[1], "count");
    put("sampling.level_warp", probe.levels[2], "count");
    put("sampling.level_bb", probe.levels[3], "count");
    put("sampling.resident_at_switch",
        static_cast<double>(probe.residentAtSwitch), "count");
    for (const ProbePoint &p : probe.points) {
        report.deterministic["probe." + p.app + "@" + p.gpu +
                             ".detailed_cycles"] =
            static_cast<double>(p.detailedCycles);
        report.deterministic["probe." + p.app + "@" + p.gpu +
                             ".interval_cycles"] =
            static_cast<double>(p.intervalCycles);
        report.deterministic["probe." + p.app + "@" + p.gpu +
                             ".photon_cycles"] =
            static_cast<double>(p.photonCycles);
        report.samples["probe." + p.app + "@" + p.gpu + ".speedup"]
            .push_back(ratio(p.fullSeconds, p.photonSeconds));
    }
}

} // namespace perfbench
