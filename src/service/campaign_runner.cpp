#include "service/campaign_runner.hpp"

#include <chrono>
#include <thread>
#include <unordered_map>

#include "service/work_steal.hpp"
#include "sim/log.hpp"

namespace photon::service {

const char *
sharePolicyName(SharePolicy policy)
{
    switch (policy) {
      case SharePolicy::None: return "none";
      case SharePolicy::Ordered: return "ordered";
      case SharePolicy::Live: return "live";
    }
    return "?";
}

bool
parseSharePolicy(const std::string &name, SharePolicy &out,
                 std::string *error)
{
    if (name == "none") {
        out = SharePolicy::None;
        return true;
    }
    if (name == "ordered") {
        out = SharePolicy::Ordered;
        return true;
    }
    if (name == "live") {
        out = SharePolicy::Live;
        return true;
    }
    if (error)
        *error = "unknown share policy '" + name + "' (none ordered live)";
    return false;
}

StoreGroup
SharedSignatureStore::snapshot(const std::string &gpu) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = store_.groups.find(gpu);
    return it == store_.groups.end() ? StoreGroup{} : it->second;
}

void
SharedSignatureStore::publish(
    const std::string &gpu,
    const std::vector<sampling::KernelRecord> &kernels,
    const sampling::PhotonSampler::AnalysisStore &analyses)
{
    std::lock_guard<std::mutex> lock(mu_);
    StoreGroup &g = store_.groups[gpu];
    g.kernels.insert(g.kernels.end(), kernels.begin(), kernels.end());
    // First entry wins: an analysis is a pure function of the launch, so
    // re-published duplicates are identical and can be dropped.
    for (const auto &[key, analysis] : analyses)
        g.analyses.emplace(key, analysis);
}

Artifact
SharedSignatureStore::exportAll() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return store_;
}

JobOutput
runJob(const JobSpec &spec, const SamplingConfig &sampling, StoreGroup seed,
       func::TraceStore *traces)
{
    JobOutput out;
    out.result.spec = spec;

    GpuConfig gpu;
    driver::SimMode mode;
    timing::BackendKind backend = timing::BackendKind::Detailed;
    parseGpuName(spec.gpu, gpu);
    parseMode(spec.mode, mode);
    parseBackendName(spec.backend, backend);

    auto t0 = std::chrono::steady_clock::now();
    driver::Platform platform(gpu, mode, sampling, backend);
    if (traces)
        platform.setTraceStore(traces);
    sampling::CacheCounters base;
    if (sampling::PhotonSampler *ph = platform.photon()) {
        out.result.seedRecords = seed.kernels.size();
        for (auto &rec : seed.kernels)
            ph->cache().insert(std::move(rec));
        ph->importAnalysisStore(std::move(seed.analyses));
        // Seeding inserts are imports, not run activity: report deltas.
        base = ph->cache().counters();
    }

    std::string err;
    workloads::WorkloadPtr w = makeWorkload(spec.workload, spec.size,
                                            &err);
    PHOTON_ASSERT(w != nullptr, "job ", spec.label(), ": ", err);
    w->setup(platform);
    workloads::runWorkload(*w, platform);
    auto t1 = std::chrono::steady_clock::now();

    JobResult &r = out.result;
    r.cycles = platform.totalKernelCycles();
    r.insts = platform.totalInsts();
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.kernels = static_cast<std::uint32_t>(platform.launchLog().size());
    for (const auto &launch : platform.launchLog()) {
        ++r.levelCounts[static_cast<int>(launch.sample.level)];
        r.analysisInsts += launch.sample.telemetry.analysisInsts;
    }
    r.telemetry = platform.telemetry();
    for (auto &t : r.telemetry)
        t.job = spec.label();
    r.traceHits = platform.traceHits();
    r.traceMisses = platform.traceMisses();
    r.traceCaptures = platform.traceCaptures();

    if (sampling::PhotonSampler *ph = platform.photon()) {
        const auto &records = ph->cache().records();
        out.freshKernels.assign(records.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        r.seedRecords),
                                records.end());
        r.newRecords = out.freshKernels.size();
        out.analyses = ph->analysisStore();
        const sampling::CacheCounters &now = ph->cache().counters();
        r.cacheHits = now.hits - base.hits;
        r.cacheMisses = now.misses - base.misses;
        r.cacheInserts = now.inserts - base.inserts;
    }
    return out;
}

namespace {

/**
 * Partition job indices into chains a worker executes in order. Under
 * the ordered policy, Photon jobs with the same GPU share one chain
 * (giving deterministic store imports); everything else is a
 * single-job chain.
 */
std::vector<std::vector<std::size_t>>
buildChains(const std::vector<JobSpec> &jobs, SharePolicy policy)
{
    std::vector<std::vector<std::size_t>> chains;
    std::unordered_map<std::string, std::size_t> photon_chain_of_gpu;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (policy == SharePolicy::Ordered && jobs[i].mode == "photon") {
            auto [it, fresh] = photon_chain_of_gpu.try_emplace(
                jobs[i].gpu, chains.size());
            if (fresh)
                chains.emplace_back();
            chains[it->second].push_back(i);
            continue;
        }
        chains.push_back({i});
    }
    return chains;
}

} // namespace

CampaignResult
runCampaign(const std::vector<JobSpec> &jobs,
            const CampaignOptions &options, Artifact seed)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (std::string err = validateJob(jobs[i]); !err.empty())
            fatal("campaign job ", i, " (", jobs[i].label(), "): ", err);
    }

    CampaignResult result;
    result.workers = options.workers ? options.workers : 1;
    result.share = sharePolicyName(options.share);
    result.jobs.resize(jobs.size());

    // Traces are shared under every policy: a trace is a pure function
    // of its key, so replaying one captured by any job is
    // schedule-independent (unlike signature sharing, which changes
    // predictions and therefore respects the share policy).
    func::TraceStore trace_store;
    trace_store.import(seed.traces);

    SharedSignatureStore store(std::move(seed));
    // Under "none" no job reads what another published, so outputs are
    // held and published in job order once the pool joins: jobs keep
    // importing the untouched seed, and the final store is the same
    // for any worker count.
    const bool defer = options.share == SharePolicy::None;
    std::vector<JobOutput> held(defer ? jobs.size() : 0);
    auto publish = [&](const JobSpec &spec, const JobOutput &out) {
        if (!out.freshKernels.empty() || !out.analyses.empty())
            store.publish(spec.gpu, out.freshKernels, out.analyses);
    };

    std::vector<std::vector<std::size_t>> chains =
        buildChains(jobs, options.share);

    std::size_t pool = std::min<std::size_t>(result.workers,
                                             chains.size());
    if (pool == 0)
        pool = 1;

    // Chains are seeded round-robin over per-worker deques; a worker
    // that drains its lane steals the back half of a neighbour's, so
    // one expensive chain can't strand the work queued behind it.
    // Steals move whole chains, never split one: `ordered` semantics
    // and per-index report assembly are schedule-independent.
    WorkStealDeques<std::size_t> tasks(pool);
    for (std::size_t ci = 0; ci < chains.size(); ++ci)
        tasks.push(ci);

    auto worker = [&](std::size_t w) {
        std::size_t ci = 0;
        while (tasks.tryPop(w, ci)) {
            for (std::size_t ji : chains[ci]) {
                JobOutput out = runJob(
                    jobs[ji], options.sampling,
                    store.snapshot(jobs[ji].gpu),
                    options.traceReuse ? &trace_store : nullptr);
                if (defer) {
                    held[ji] = std::move(out);
                    continue;
                }
                publish(jobs[ji], out);
                result.jobs[ji] = std::move(out.result);
            }
        }
    };

    auto t0 = std::chrono::steady_clock::now();
    if (pool <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (std::size_t i = 0; i < pool; ++i)
            threads.emplace_back(worker, i);
        for (auto &t : threads)
            t.join();
    }
    for (std::size_t ji = 0; ji < held.size(); ++ji) {
        publish(jobs[ji], held[ji]);
        result.jobs[ji] = std::move(held[ji].result);
    }
    auto t1 = std::chrono::steady_clock::now();

    result.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    StealStats steals = tasks.stats();
    result.stealOps = steals.stealOps;
    result.stolenTasks = steals.stolenTasks;
    result.finalStore = store.exportAll();
    if (options.traceReuse)
        result.finalStore.traces = trace_store.exportAll();
    // Telemetry goes into the final store in job order (not publish
    // order) so the exported artifact is identical for any worker count.
    for (const JobResult &j : result.jobs) {
        StoreGroup &g = result.finalStore.groups[j.spec.gpu];
        g.telemetry.insert(g.telemetry.end(), j.telemetry.begin(),
                           j.telemetry.end());
    }
    return result;
}

} // namespace photon::service
