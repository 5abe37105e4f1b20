#include "serve/server.hpp"

#include <chrono>

#include "driver/platform.hpp"
#include "serve/fingerprint.hpp"
#include "sim/log.hpp"
#include "workloads/workload.hpp"

namespace photon::serve {

SimServer::SimServer(ServerOptions options)
    : opts_(std::move(options)), store_(opts_.store),
      queue_(opts_.workers ? opts_.workers : 1)
{
    std::uint32_t workers = opts_.workers ? opts_.workers : 1;
    paused_ = opts_.startPaused;
    workers_.reserve(workers);
    for (std::uint32_t i = 0; i < workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

SimServer::~SimServer()
{
    drain();
}

SimServer::Ticket
SimServer::finishedTicketLocked(ServeResult result)
{
    Ticket t = nextTicket_++;
    auto pending = std::make_shared<Pending>();
    pending->spec = result.spec;
    pending->done = true;
    pending->result = std::move(result);
    tickets_.emplace(t, TicketState{pending, pending->spec, false});
    ++submitted_;
    ++completed_;
    return t;
}

SimServer::Ticket
SimServer::submit(const service::JobSpec &spec)
{
    std::string err = service::validateJob(spec);
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_) {
        ServeResult r;
        r.spec = spec;
        r.error = "server is draining; submission rejected";
        return finishedTicketLocked(std::move(r));
    }
    if (!err.empty()) {
        ServeResult r;
        r.spec = spec;
        r.error = err;
        return finishedTicketLocked(std::move(r));
    }

    std::uint64_t key = store_.admissionKey(spec);
    if (auto it = inFlight_.find(key); it != inFlight_.end()) {
        // Admission dedup: ride the in-flight run with the same
        // GPU-BBV fingerprint; the leader's result fans out on finish.
        Ticket t = nextTicket_++;
        ++it->second->waiters;
        tickets_.emplace(t, TicketState{it->second, spec, true});
        ++submitted_;
        store_.recordDedupCollapse();
        return t;
    }

    auto pending = std::make_shared<Pending>();
    pending->spec = spec;
    pending->key = key;
    Ticket t = nextTicket_++;
    tickets_.emplace(t, TicketState{pending, spec, false});
    ++submitted_;
    queue_.push(pending);
    inFlight_.emplace(key, std::move(pending));
    lock.unlock();
    workCv_.notify_one();
    return t;
}

ServeResult
SimServer::wait(Ticket ticket)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = tickets_.find(ticket);
    if (it == tickets_.end()) {
        ServeResult r;
        r.error = "unknown ticket " + std::to_string(ticket);
        return r;
    }
    TicketState state = it->second;
    doneCv_.wait(lock, [&] { return state.job->done; });
    tickets_.erase(ticket);
    ServeResult r = state.job->result;
    r.spec = state.spec;
    r.dedupCollapsed = state.collapsed;
    r.fingerprint = state.job->key;
    return r;
}

ServeResult
SimServer::runSync(const service::JobSpec &spec)
{
    return wait(submit(spec));
}

void
SimServer::resume()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        paused_ = false;
    }
    workCv_.notify_all();
}

void
SimServer::drain()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (stop_)
            return;
        draining_ = true;
        paused_ = false; // a paused drain would deadlock on the queue
        workCv_.notify_all();
        doneCv_.wait(lock, [&] {
            return queue_.sizeApprox() == 0 && running_ == 0;
        });
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    std::string err;
    if (!store_.checkpointNow(&err))
        warn("serve: drain checkpoint failed: ", err);
}

ServerStatus
SimServer::status() const
{
    ServerStatus s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.workers = static_cast<std::uint32_t>(workers_.size());
        s.queued = queue_.sizeApprox();
        s.running = running_;
        s.submitted = submitted_;
        s.completed = completed_;
        s.draining = draining_;
    }
    s.store = store_.stats();
    s.storeKernelRecords = store_.numKernelRecords();
    s.storeAnalyses = store_.numAnalyses();
    s.storeIntervalEntries = store_.numIntervalMemoEntries();
    s.storeTraces = store_.numTraces();
    return s;
}

void
SimServer::workerLoop(std::size_t worker)
{
    for (;;) {
        PendingPtr job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock, [&] {
                return stop_ || (!paused_ && queue_.sizeApprox() > 0);
            });
            // Own lane first, else steal half a neighbour's (lane locks
            // nest inside mu_ everywhere; work_steal.hpp never takes
            // mu_). A lost race with another worker just re-waits.
            if (!queue_.tryPop(worker, job)) {
                if (stop_)
                    return;
                continue;
            }
            ++running_;
        }

        ServeResult result = executeJob(job->spec);

        std::string err;
        if (!store_.maybeCheckpoint(&err))
            warn("serve: periodic checkpoint failed: ", err);

        {
            std::lock_guard<std::mutex> lock(mu_);
            job->result = std::move(result);
            job->done = true;
            inFlight_.erase(job->key);
            completed_ += 1 + job->waiters;
            --running_;
        }
        doneCv_.notify_all();
    }
}

ServeResult
SimServer::executeJob(const service::JobSpec &spec)
{
    ServeResult r;
    r.spec = spec;

    GpuConfig gpu;
    driver::SimMode mode;
    timing::BackendKind backend = timing::BackendKind::Detailed;
    service::parseGpuName(spec.gpu, gpu);
    service::parseMode(spec.mode, mode);
    service::parseBackendName(spec.backend, backend);

    auto t0 = std::chrono::steady_clock::now();
    driver::Platform platform(gpu, mode, opts_.sampling, backend);
    // Attach the resident trace store: full-mode jobs replay launches
    // any earlier job captured (and capture the ones nobody has);
    // sampled modes consume hits for their analysis passes. The store
    // rides the v5 checkpoint, so a warm-restarted daemon replays
    // without a single emulator invocation.
    platform.setTraceStore(&store_.traceStore());

    service::StoreGroup seed = store_.snapshot(spec.gpu);
    std::size_t seed_records = 0;
    sampling::CacheCounters base;
    if (sampling::PhotonSampler *ph = platform.photon()) {
        seed_records = seed.kernels.size();
        for (auto &rec : seed.kernels)
            ph->cache().insert(std::move(rec));
        ph->importAnalysisStore(std::move(seed.analyses));
        ph->importIntervalMemoStore(
            store_.snapshotIntervalMemos(spec.gpu));
        base = ph->cache().counters();
    }

    std::string err;
    workloads::WorkloadPtr w =
        service::makeWorkload(spec.workload, spec.size, &err);
    PHOTON_ASSERT(w != nullptr, "serve job ", spec.label(), ": ", err);
    w->setup(platform);
    workloads::runWorkload(*w, platform);
    auto t1 = std::chrono::steady_clock::now();

    r.ok = true;
    r.cycles = platform.totalKernelCycles();
    r.insts = platform.totalInsts();
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.kernels = static_cast<std::uint32_t>(platform.launchLog().size());
    std::uint64_t analyses_reused = 0;
    for (const driver::LaunchResult &launch : platform.launchLog()) {
        if (launch.sample.level == sampling::SampleLevel::Kernel)
            ++r.kernelHits;
        if (launch.sample.telemetry.analysisReused)
            ++analyses_reused;
    }
    r.cacheHit = r.kernels > 0 && r.kernelHits == r.kernels;
    r.analysisReused = analyses_reused > 0;
    store_.recordTraceStats(platform.traceHits(), platform.traceMisses(),
                            platform.traceCaptures());

    std::vector<sampling::KernelTelemetry> telemetry =
        platform.telemetry();
    for (sampling::KernelTelemetry &t : telemetry)
        t.job = spec.label();

    if (sampling::PhotonSampler *ph = platform.photon()) {
        const auto &records = ph->cache().records();
        std::vector<sampling::KernelRecord> fresh(
            records.begin() + static_cast<std::ptrdiff_t>(seed_records),
            records.end());
        store_.publish(spec.gpu, fresh, ph->analysisStore(), telemetry);
        store_.publishIntervalMemos(spec.gpu, ph->intervalMemoStore());
        sampling::CacheCounters now = ph->cache().counters();
        store_.recordJobStats(now.hits - base.hits,
                              now.misses - base.misses,
                              now.inserts - base.inserts,
                              analyses_reused,
                              ph->intervalMemoHits(),
                              ph->intervalMemoMisses());
        store_.learnFingerprint(
            spec, fingerprintAnalyses(ph->analysisStore(), spec.mode,
                                      spec.gpu));
    } else {
        store_.publish(spec.gpu, {}, {}, telemetry);
        store_.recordJobStats(0, 0, 0, 0);
    }
    return r;
}

} // namespace photon::serve
