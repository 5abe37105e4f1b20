#include "serve/server.hpp"

#include "serve/fingerprint.hpp"
#include "service/campaign_runner.hpp"
#include "sim/log.hpp"

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

    const std::uint64_t key = admissionKey(spec);
    auto it = latest_.find(key);
    if (it != latest_.end() && it->second->spec == spec) {
        // Admission dedup: ride the spec's latest run while it is in
        // flight (the leader's result fans out on finish), or once it
        // finished OK from the seed this GPU's group still holds. The
        // spec check leaves a colliding key to a run of its own.
        Pending &run = *it->second;
        if (!run.done || (run.result.ok &&
                          run.generation == store_.generation(spec.gpu))) {
            Ticket t = nextTicket_++;
            tickets_.emplace(t, TicketState{it->second, spec, true});
            ++submitted_;
            if (run.done)
                ++completed_;
            else
                ++run.waiters;
            store_.recordDedupCollapse();
            return t;
        }
    }

    auto pending = std::make_shared<Pending>();
    pending->spec = spec;
    pending->key = key;
    Ticket t = nextTicket_++;
    tickets_.emplace(t, TicketState{pending, spec, false});
    ++submitted_;
    queue_.push(pending);
    latest_.insert_or_assign(key, std::move(pending));
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

        std::uint64_t generation = 0;
        ServeResult result = executeJob(job->spec, generation);

        std::string err;
        if (!store_.maybeCheckpoint(&err))
            warn("serve: periodic checkpoint failed: ", err);

        {
            std::lock_guard<std::mutex> lock(mu_);
            job->result = std::move(result);
            job->generation = generation;
            job->done = true;
            completed_ += 1 + job->waiters;
            --running_;
        }
        doneCv_.notify_all();
    }
}

ServeResult
SimServer::executeJob(const service::JobSpec &spec,
                      std::uint64_t &generation)
{
    // Only a Photon job reads the seed, so only it copies the group.
    service::StoreGroup seed;
    if (spec.mode == "photon")
        seed = store_.snapshot(spec.gpu, &generation);
    else
        generation = store_.generation(spec.gpu);
    // The resident trace store lets full-mode jobs replay launches any
    // earlier job captured, and rides the checkpoint, so a warm
    // restarted daemon replays without an emulator invocation.
    service::JobOutput out = service::runJob(
        spec, opts_.sampling, std::move(seed), &store_.traceStore());
    const service::JobResult &j = out.result;

    std::uint64_t analyses_reused = 0;
    for (const sampling::KernelTelemetry &t : j.telemetry)
        analyses_reused += t.analysisReused;
    store_.publish(spec.gpu, out.freshKernels, out.analyses, j.telemetry);
    store_.recordJobStats(j.cacheHits, j.cacheMisses, j.cacheInserts,
                          analyses_reused);
    store_.recordTraceStats(j.traceHits, j.traceMisses, j.traceCaptures);

    ServeResult r;
    r.spec = spec;
    r.ok = true;
    r.cycles = j.cycles;
    r.insts = j.insts;
    r.wallSeconds = j.wallSeconds;
    r.kernels = j.kernels;
    r.kernelHits = j.kernelHits();
    r.cacheHit = r.kernels > 0 && r.kernelHits == r.kernels;
    r.analysisReused = analyses_reused > 0;
    return r;
}

} // namespace photon::serve
