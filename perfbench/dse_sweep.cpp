/**
 * @file
 * dse_sweep: a design-space campaign through service::runCampaign with
 * the ordered share policy and trace reuse on. Photon chains (resnet18,
 * resnet34, vgg16, a small pagerank) per GPU come first, then the
 * full-mode cross product {resnet18, pagerank, mm, spmv, aes} x {tiny,
 * r9nano, mi100} x {detailed, interval}, then a full-detail pagerank of
 * the small size per GPU so its Photon error is measured. The
 * cold pass starts empty; its final store is saved with saveArtifact,
 * reloaded with loadArtifact and seeds a warm pass of the same jobs.
 *
 * The small pagerank stays because Photon errs badly on it (about 60%)
 * against well under 1% at the default size, so an accuracy fix or
 * regression shows. JobSpec carries no input seed, so the campaign's
 * spmv and pagerank inputs are the library defaults: --seed does not
 * change this workload.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "perfbench.hpp"
#include "service/campaign_runner.hpp"

namespace perfbench {

using photon::driver::Platform;
using photon::driver::SimMode;
namespace svc = photon::service;

namespace {

const char *const kGpus[] = {"tiny", "r9nano", "mi100"};

/** Full-mode cross product; sizes keep a cold+warm repetition to a few
 *  seconds (resnet18 has a fixed size and is the longest job). */
const std::vector<std::pair<std::string, std::uint32_t>> kSweepApps = {
    {"resnet18", 0}, {"pagerank", 16384}, {"mm", 256},
    {"spmv", 512},   {"aes", 2048},
};
constexpr std::uint32_t kSmallPagerank = 2048;

/** Longest chains first: the per-GPU Photon chains, then the cross
 *  product led by resnet18, so the makespan does not hinge on a long
 *  job starting last. */
std::vector<svc::JobSpec>
sweepJobs()
{
    std::vector<svc::JobSpec> jobs;
    for (const char *gpu : kGpus)
        for (const char *app : {"resnet18", "resnet34", "vgg16"})
            jobs.push_back({app, 0, "photon", gpu, "detailed"});
    for (const char *gpu : kGpus)
        jobs.push_back({"pagerank", kSmallPagerank, "photon", gpu,
                        "detailed"});
    for (const auto &[app, size] : kSweepApps)
        for (const char *gpu : kGpus)
            for (const char *backend : {"detailed", "interval"})
                jobs.push_back({app, size, "full", gpu, backend});
    for (const char *gpu : kGpus)
        jobs.push_back({"pagerank", kSmallPagerank, "full", gpu, "detailed"});
    return jobs;
}

std::string
jobDigest(const svc::JobResult &j)
{
    std::string d = std::to_string(j.cycles) + "/" + std::to_string(j.insts);
    for (std::uint32_t c : j.levelCounts)
        d += "/" + std::to_string(c);
    return d;
}

/** One job on its own Platform, seeded like the campaign runner seeds
 *  Photon jobs; returns the digest and the Photon state it produced. */
struct DirectRun
{
    std::string digest;
    std::vector<photon::sampling::KernelRecord> fresh;
    photon::sampling::PhotonSampler::AnalysisStore analyses;
};

DirectRun
runDirect(const svc::JobSpec &spec, const svc::StoreGroup &seed)
{
    SimMode mode = SimMode::FullDetailed;
    photon::timing::BackendKind backend = photon::timing::BackendKind::Detailed;
    svc::parseMode(spec.mode, mode);
    svc::parseBackendName(spec.backend, backend);
    Platform platform(gpuByName(spec.gpu), mode, photon::SamplingConfig{},
                      backend);
    std::size_t seeded = 0;
    if (auto *ph = platform.photon()) {
        for (const auto &rec : seed.kernels)
            ph->cache().insert(rec);
        seeded = seed.kernels.size();
        ph->importAnalysisStore(seed.analyses);
    }
    auto w = svc::makeWorkload(spec.workload, spec.size);
    w->setup(platform);
    photon::workloads::runWorkload(*w, platform);

    svc::JobResult j;
    j.cycles = platform.totalKernelCycles();
    j.insts = platform.totalInsts();
    for (const auto &l : platform.launchLog())
        ++j.levelCounts[static_cast<int>(l.sample.level)];
    DirectRun out;
    out.digest = jobDigest(j);
    if (auto *ph = platform.photon()) {
        const auto &recs = ph->cache().records();
        out.fresh.assign(recs.begin() + static_cast<std::ptrdiff_t>(seeded),
                         recs.end());
        out.analyses = ph->analysisStore();
    }
    return out;
}

/**
 * Expected digest of every job, computed without the campaign runner:
 * full-mode jobs on fresh Platforms (in parallel), Photon jobs as
 * per-GPU chains that import exactly what earlier chain members
 * published on top of @p seed (the ordered policy's contract).
 */
std::vector<std::string>
directDigests(const std::vector<svc::JobSpec> &jobs,
              const svc::Artifact &seed, unsigned threads)
{
    std::vector<std::string> out(jobs.size());
    std::vector<std::vector<std::size_t>> tasks;
    std::map<std::string, std::size_t> chain_of_gpu;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].mode != "photon") {
            tasks.push_back({i});
            continue;
        }
        auto [it, fresh] = chain_of_gpu.try_emplace(jobs[i].gpu,
                                                    tasks.size());
        if (fresh)
            tasks.emplace_back();
        tasks[it->second].push_back(i);
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t t; (t = next++) < tasks.size();) {
            svc::StoreGroup group;
            if (auto g = seed.groups.find(jobs[tasks[t][0]].gpu);
                g != seed.groups.end())
                group = g->second;
            for (std::size_t ji : tasks[t]) {
                DirectRun r = runDirect(jobs[ji], group);
                out[ji] = r.digest;
                group.kernels.insert(group.kernels.end(), r.fresh.begin(),
                                     r.fresh.end());
                for (auto &[key, an] : r.analyses)
                    group.analyses.try_emplace(key, an);
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return out;
}

struct Rep
{
    double setup = 0.0;
    double cold = 0.0;
    double save = 0.0;
    double load = 0.0;
    double warm = 0.0;
    double coldCpu = 0.0; ///< CPU time of every thread of the cold pass
    double warmCpu = 0.0; ///< the same for loadArtifact + the warm pass
    double jobP50 = 0.0;   ///< cold-pass job wall times
    double jobMax = 0.0;
    double idle = 0.0;     ///< 1 - busy worker time / (workers x makespan)
    double launch = 0.0;   ///< sum of cold-pass Platform::launch times
    /** Host slowdown sampled during set-up, the cold pass and
     *  loadArtifact + the warm pass. */
    double setupSlowdown = 1.0;
    double coldSlowdown = 1.0;
    double warmSlowdown = 1.0;
    std::uint64_t artifactBytes = 0;
    /** Full results; kept for the first repetition only, which the
     *  direct-run checks compare against. */
    svc::CampaignResult coldResult;
    svc::CampaignResult warmResult;
    svc::Artifact loaded;
};

/** Per-job Platform construction plus Workload::setup, summed in
 *  thread CPU time: what the campaign pays before each job's first
 *  launch can issue. */
double
measureSetup(const std::vector<svc::JobSpec> &jobs, Tracer &tracer)
{
    double total = 0.0;
    for (const svc::JobSpec &spec : jobs) {
        auto s = tracer.span("driver.setup", spec.label());
        SimMode mode = SimMode::FullDetailed;
        photon::timing::BackendKind backend =
            photon::timing::BackendKind::Detailed;
        svc::parseMode(spec.mode, mode);
        svc::parseBackendName(spec.backend, backend);
        double t0 = threadCpuNow();
        Platform platform(gpuByName(spec.gpu), mode,
                          photon::SamplingConfig{}, backend);
        auto w = svc::makeWorkload(spec.workload, spec.size);
        w->setup(platform);
        total += threadCpuNow() - t0;
    }
    return total;
}

Rep
runRep(const std::vector<svc::JobSpec> &jobs,
       const svc::CampaignOptions &opts, const std::string &path,
       Tracer &tracer, Report &report, const HostSpeedSampler &speed)
{
    Rep rep;
    // Process CPU time, less what the host-speed sampler used meanwhile.
    auto cpu_now = [&] { return processCpuNow() - speed.cpuSeconds(); };
    const double s0 = wallNow();
    rep.setup = measureSetup(jobs, tracer);
    double c0 = cpu_now();
    double t0 = wallNow();
    rep.setupSlowdown = speed.slowdown(s0, t0);
    {
        auto s = tracer.span("service.campaign", "cold");
        rep.coldResult = svc::runCampaign(jobs, opts);
    }
    double t1 = wallNow();
    rep.coldCpu = cpu_now() - c0;
    rep.coldSlowdown = speed.slowdown(t0, t1);
    photon::service::LoadStatus st;
    {
        auto s = tracer.span("service.artifact_save", "cold");
        st = svc::saveArtifact(rep.coldResult.finalStore, path);
    }
    double t2 = wallNow();
    double c2 = cpu_now();
    report.op(st.ok, "saveArtifact: " + st.error);
    std::error_code ec;
    rep.artifactBytes = std::filesystem::file_size(path, ec);
    {
        auto s = tracer.span("service.artifact_load", "warm");
        st = svc::loadArtifact(path, rep.loaded);
    }
    double t3 = wallNow();
    report.op(st.ok, "loadArtifact: " + st.error);
    {
        auto s = tracer.span("service.campaign", "warm");
        rep.warmResult = svc::runCampaign(jobs, opts, rep.loaded);
    }
    double t4 = wallNow();
    rep.warmCpu = cpu_now() - c2;
    rep.warmSlowdown = speed.slowdown(t2, t4);
    rep.cold = t1 - t0;
    rep.save = t2 - t1;
    rep.load = t3 - t2;
    rep.warm = t4 - t3;
    std::vector<double> walls;
    double busy = 0.0;
    for (const svc::JobResult &j : rep.coldResult.jobs) {
        walls.push_back(j.wallSeconds);
        busy += j.wallSeconds;
        for (const auto &t : j.telemetry)
            rep.launch += t.wallSeconds;
    }
    rep.jobP50 = median(walls);
    rep.jobMax = *std::max_element(walls.begin(), walls.end());
    rep.idle = 1.0 - busy / (opts.workers * rep.coldResult.wallSeconds);
    return rep;
}

std::string
passDigest(const svc::CampaignResult &r)
{
    std::string d;
    for (const svc::JobResult &j : r.jobs)
        d += j.spec.label() + "=" + jobDigest(j) + " ";
    return d;
}

} // namespace

void
runDseSweep(const Options &options, Report &report, Tracer &on)
{
    const std::vector<svc::JobSpec> jobs = sweepJobs();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    svc::CampaignOptions opts;
    opts.workers = std::min(4u, nproc);
    opts.share = svc::SharePolicy::Ordered;
    opts.traceReuse = true;
    const std::string path = options.runDir + "/sweep_store.bin";
    Tracer off(false);

    std::vector<Rep> untraced, traced;
    std::string cold_digest, warm_digest;
    HostSpeedSampler speed;
    const double t0 = wallNow();
    while (untraced.empty() || wallNow() - t0 < options.seconds ||
           (options.trace && traced.empty())) {
        const bool trace_this =
            options.trace && untraced.size() > traced.size();
        Rep rep = runRep(jobs, opts, path, trace_this ? on : off, report,
                         speed);
        std::string c = passDigest(rep.coldResult);
        std::string w = passDigest(rep.warmResult);
        // Full-mode results never depend on the store: warm == cold.
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (jobs[i].mode == "full")
                report.op(jobDigest(rep.coldResult.jobs[i]) ==
                              jobDigest(rep.warmResult.jobs[i]),
                          jobs[i].label() + ": warm full-mode result "
                                            "differs from cold");
        if (cold_digest.empty()) {
            cold_digest = c;
            warm_digest = w;
        } else {
            report.op(c == cold_digest && w == warm_digest,
                      "dse_sweep: simulated numbers differ between "
                      "repetitions (traced vs untraced or repeat)");
        }
        if (!untraced.empty()) {
            rep.coldResult = {};
            rep.warmResult = {};
            rep.loaded = {};
        }
        (trace_this ? traced : untraced).push_back(std::move(rep));
    }
    const double slowdown = speed.slowdown(t0, wallNow());

    // Every job must equal a direct single-Platform run of its spec
    // (Photon jobs: the same chain replayed by hand).
    const Rep &ref = untraced.front();
    std::vector<std::string> cold_ref =
        directDigests(jobs, svc::Artifact{}, nproc);
    std::vector<std::string> warm_ref =
        directDigests(jobs, ref.loaded, nproc);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        report.op(jobDigest(ref.coldResult.jobs[i]) == cold_ref[i],
                  jobs[i].label() + ": cold campaign result " +
                      jobDigest(ref.coldResult.jobs[i]) +
                      " != direct run " + cold_ref[i]);
        report.op(jobDigest(ref.warmResult.jobs[i]) == warm_ref[i],
                  jobs[i].label() + ": warm campaign result " +
                      jobDigest(ref.warmResult.jobs[i]) +
                      " != direct run " + warm_ref[i]);
    }

    // Accuracy (simulated cycles, deterministic) from the cold pass.
    auto cycles_of = [&](const std::string &app, std::uint32_t size,
                         const std::string &mode, const std::string &gpu,
                         const std::string &backend) -> double {
        for (const svc::JobResult &j : ref.coldResult.jobs)
            if (j.spec == svc::JobSpec{app, size, mode, gpu, backend})
                return static_cast<double>(j.cycles);
        return 0.0;
    };
    double err_sum = 0.0, err_max = 0.0;
    int err_n = 0;
    std::vector<ProbePoint> interval_points;
    for (const char *gpu : kGpus) {
        for (const auto &[app, size] :
             std::vector<std::pair<std::string, std::uint32_t>>{
                 {"resnet18", 0}, {"pagerank", kSmallPagerank}}) {
            double f = cycles_of(app, size, "full", gpu, "detailed");
            double p = cycles_of(app, size, "photon", gpu, "detailed");
            double e = 100.0 * std::abs(p - f) / f;
            report.deterministic["photon_error_pct." + app + "@" + gpu] = e;
            err_sum += e;
            err_max = std::max(err_max, e);
            ++err_n;
        }
        for (const auto &[app, size] : kSweepApps) {
            ProbePoint pt;
            pt.app = app;
            pt.gpu = gpu;
            pt.detailedCycles = static_cast<std::uint64_t>(
                cycles_of(app, size, "full", gpu, "detailed"));
            pt.intervalCycles = static_cast<std::uint64_t>(
                cycles_of(app, size, "full", gpu, "interval"));
            interval_points.push_back(pt);
        }
    }
    double interval_err = 0.0, rank_tau = 0.0;
    intervalAccuracy(interval_points, interval_err, rank_tau);

    std::vector<double> setup, cold, warm, cold_cpu, warm_cpu, save, load,
        job_p50, job_max, idle, launch, setup_n, cold_n, warm_n;
    for (const Rep &r : untraced) {
        setup.push_back(r.setup);
        cold.push_back(r.cold);
        warm.push_back(r.load + r.warm);
        cold_cpu.push_back(r.coldCpu);
        warm_cpu.push_back(r.warmCpu);
        setup_n.push_back(r.setup / r.setupSlowdown);
        cold_n.push_back(r.coldCpu / r.coldSlowdown);
        warm_n.push_back(r.warmCpu / r.warmSlowdown);
        save.push_back(r.save);
        load.push_back(r.load);
        job_p50.push_back(r.jobP50);
        job_max.push_back(r.jobMax);
        idle.push_back(r.idle);
        launch.push_back(r.launch);
    }
    report.samples["setup_s"] = setup;
    report.samples["sweep_s"] = cold;
    report.samples["sweep_warm_s"] = warm;
    report.samples["sweep_cpu_s"] = cold_cpu;
    report.samples["sweep_warm_cpu_s"] = warm_cpu;
    report.samples["host_slowdown"] = speed.between(t0, wallNow());

    const double err_mean = err_sum / err_n;
    // The gated figures are CPU time: the makespan also moves with how
    // many cores the shared host lends this run (the parallelism probe
    // read 2.0 to 3.9 of 4 across runs), the work the pass does does not.
    // Each repetition's time is divided by the host slowdown sampled
    // while it ran; the gated figures are the medians over repetitions.
    // The makespans take the fastest repetition: contention only ever
    // slows a pass down.
    auto fastest = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    const double sweep_s = fastest(cold);
    const double sweep_warm_s = fastest(warm);
    report.endToEnd["setup_s"] = {median(setup_n), "s"};
    report.endToEnd["slow_s"] = {median(cold_n), "s"};
    report.endToEnd["fast_s"] = {median(warm_n), "s"};
    report.endToEnd["error_pct"] = {err_mean, "%"};
    report.endToEnd["error_max_pct"] = {err_max, "%"};
    report.named["setup_s"] = {median(setup), "s"};
    report.named["host_slowdown"] = {slowdown, "x"};
    report.named["sweep_s"] = {sweep_s, "s"};
    report.named["sweep_warm_s"] = {sweep_warm_s, "s"};
    report.named["sweep_cpu_s"] = {median(cold_cpu), "s"};
    report.named["sweep_warm_cpu_s"] = {median(warm_cpu), "s"};
    report.named["photon_error_pct"] = {err_mean, "%"};
    report.named["photon_error_max_pct"] = {err_max, "%"};
    report.named["interval_error_pct"] = {interval_err, "%"};
    report.named["interval_rank_tau"] = {rank_tau, "tau"};

    if (!options.trace)
        return;

    std::vector<ProbeApp> probe_apps;
    for (const char *gpu : kGpus) {
        for (const auto &[app, size] : kSweepApps) {
            App a{app + std::to_string(size), gpu,
                  [app, size] { return svc::makeWorkload(app, size); }};
            probe_apps.push_back(
                {a,
                 static_cast<std::uint64_t>(
                     cycles_of(app, size, "full", gpu, "detailed")),
                 static_cast<std::uint64_t>(
                     cycles_of(app, size, "full", gpu, "interval")),
                 0, true});
        }
    }
    ProbeResult probe = probeLayers(probe_apps, on, report);
    reportProbe(probe, report);

    std::uint64_t hits = 0, misses = 0, captures = 0, kernels = 0,
                  khits = 0;
    for (const auto *pass : {&ref.coldResult, &ref.warmResult}) {
        for (const svc::JobResult &j : pass->jobs) {
            hits += j.traceHits;
            misses += j.traceMisses;
            captures += j.traceCaptures;
            if (j.spec.mode == "photon") {
                kernels += j.kernels;
                khits += j.kernelHits();
            }
        }
    }
    auto layer = [&](const std::string &name, double v, const char *unit) {
        report.perLayer[name] = Metric{v, unit};
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    layer("func.trace_captures", static_cast<double>(captures), "count");
    layer("func.trace_hits", static_cast<double>(hits), "count");
    layer("func.trace_misses", static_cast<double>(misses), "count");
    layer("func.trace_hit_ratio", ratio(hits, hits + misses), "frac");
    layer("sampling.kernel_hit_ratio", ratio(khits, kernels), "frac");
    layer("driver.launch_s", median(launch), "s");
    layer("driver.setup_s", median(setup), "s");
    layer("service.campaign_s", median(cold), "s");
    layer("service.job_s_p50", median(job_p50), "s");
    layer("service.job_s_max", median(job_max), "s");
    layer("service.worker_idle_frac", median(idle), "frac");
    layer("service.artifact_save_s", median(save), "s");
    layer("service.artifact_load_s", median(load), "s");
    layer("service.artifact_bytes", static_cast<double>(ref.artifactBytes),
          "bytes");

    std::vector<double> traced_total, untraced_total;
    for (const Rep &r : traced)
        traced_total.push_back(r.setup + r.cold + r.save + r.load + r.warm);
    for (const Rep &r : untraced)
        untraced_total.push_back(r.setup + r.cold + r.save + r.load +
                                 r.warm);
    layer("trace_overhead_frac",
          median(traced_total) / median(untraced_total) - 1.0, "frac");
}

} // namespace perfbench
