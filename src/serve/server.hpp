/**
 * @file
 * The in-process service core of `photon_sim serve`: a job queue in
 * front of N resident workers, one shared GlobalStore, and admission
 * dedup keyed by the request's spec. Transport-free by design — the
 * socket front end (serve/daemon.hpp) and the tests drive the same
 * object.
 *
 * Request lifecycle:
 *
 *   submit(spec) ── admission ──┬─ new key ──────────► queue ──► worker
 *                               ├─ key in flight ────► attach as waiter
 *                               └─ key finished OK at its GPU's
 *                                  current generation ► answered now
 *
 * A worker runs each job through service::runJob, the campaign
 * runner's job executor: a private Platform (bit-identical to a serial
 * run) seeded from the shared store's matching GPU group. The worker
 * then publishes the fresh records back and folds the job's counters
 * into the store's stats.
 *
 * An answer is a function of the spec, the server's SamplingConfig and
 * the GPU group the job read (traces replay bit-identically), so the
 * server keeps each spec key's latest run. A request with that key
 * rides it, flagged dedup_collapsed: while it is in flight (its result
 * fans out when the leader finishes), and after it finished OK as long
 * as the group's generation still equals the one the run read at start
 * (GlobalStore::generation). Any publish of a kernel record or a
 * first-seen analysis to that GPU moves the generation, so the next
 * request executes again. The map lives in memory only: a restarted
 * daemon executes each spec's first request.
 */

#ifndef PHOTON_SERVE_SERVER_HPP
#define PHOTON_SERVE_SERVER_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/global_store.hpp"
#include "service/work_steal.hpp"
#include "sim/config.hpp"

namespace photon::serve {

/** Server construction options. */
struct ServerOptions
{
    std::uint32_t workers = 2; ///< resident worker threads (0 acts as 1)
    SamplingConfig sampling{};
    GlobalStore::Options store{};
    /** Start with the queue held: nothing executes until resume().
     *  Deterministic-admission mode for tests and benches. */
    bool startPaused = false;
};

/** Outcome of one request (leader result, fanned out to waiters). */
struct ServeResult
{
    service::JobSpec spec;
    bool ok = false;
    std::string error;

    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint32_t kernels = 0;    ///< launches in the job
    std::uint32_t kernelHits = 0; ///< launches served by kernel-sampling
    bool cacheHit = false;        ///< every launch was a cache hit
    bool dedupCollapsed = false;  ///< this request rode a leader's run
    bool analysisReused = false;  ///< any launch reused a stored analysis
    double wallSeconds = 0.0;     ///< leader's simulation wall time
    std::uint64_t fingerprint = 0; ///< admission key the request used
};

/** Snapshot for `photon_sim status` / `photon_sim cache`. */
struct ServerStatus
{
    std::uint32_t workers = 0;
    std::size_t queued = 0;           ///< admitted, not yet running
    std::size_t running = 0;          ///< executing on a worker now
    std::uint64_t submitted = 0;      ///< requests accepted (incl. waiters)
    std::uint64_t completed = 0;      ///< requests answered
    bool draining = false;
    StoreStats store;
    std::size_t storeKernelRecords = 0;
    std::size_t storeAnalyses = 0;
    std::size_t storeTraces = 0; ///< functional traces resident (v5)
};

/** The resident simulation service. */
class SimServer
{
  public:
    using Ticket = std::uint64_t;

    explicit SimServer(ServerOptions options);
    ~SimServer(); ///< drains (finishes queued work, checkpoints)

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /**
     * Admit one request. Invalid specs and submissions during drain
     * yield a ticket whose result is already a failure; valid ones
     * either ride their spec key's latest run (in flight, or finished
     * at the current generation) or enqueue a new job.
     */
    Ticket submit(const service::JobSpec &spec);

    /** Block until @p ticket's job finished; consumes the ticket. */
    ServeResult wait(Ticket ticket);

    /** submit + wait. */
    ServeResult runSync(const service::JobSpec &spec);

    /** Release the queue of a startPaused server. */
    void resume();

    /** Stop admitting, finish everything queued/in-flight, flush the
     *  checkpoint, join the workers. Idempotent. */
    void drain();

    ServerStatus status() const;

    GlobalStore &store() { return store_; }

  private:
    /** One admitted job: the leader's spec plus every rider's ticket. */
    struct Pending
    {
        service::JobSpec spec;
        std::uint64_t key = 0;
        std::uint32_t waiters = 0; ///< in-flight riders beyond the leader
        /** The spec's GPU generation the run read at start; set with
         *  done. */
        std::uint64_t generation = 0;
        bool done = false;
        ServeResult result;
    };
    using PendingPtr = std::shared_ptr<Pending>;

    /** A ticket's view of its job: the rider's own spec plus whether
     *  it collapsed onto another request's run. */
    struct TicketState
    {
        PendingPtr job;
        service::JobSpec spec;
        bool collapsed = false;
    };

    void workerLoop(std::size_t worker);
    /** Run @p spec; @p generation receives the GPU generation its seed
     *  was read at. */
    ServeResult executeJob(const service::JobSpec &spec,
                           std::uint64_t &generation);
    /** Record an already-completed result; the caller holds mu_. */
    Ticket finishedTicketLocked(ServeResult result);

    ServerOptions opts_;

    GlobalStore store_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< workers: queue / stop / resume
    std::condition_variable doneCv_; ///< waiters: job completion
    /** Ready jobs, spread round-robin over per-worker deques with
     *  steal-half rebalancing — the same scheduler the campaign runner
     *  uses (service/work_steal.hpp), so one long-running job never
     *  strands later submissions behind it in a single FIFO. */
    service::WorkStealDeques<PendingPtr> queue_;
    /** admission key -> that spec's latest job: queued, running, or
     *  finished (then ridden while its generation is current). */
    std::map<std::uint64_t, PendingPtr> latest_;
    std::map<Ticket, TicketState> tickets_;
    Ticket nextTicket_ = 1;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::size_t running_ = 0;
    bool paused_ = false;
    bool draining_ = false;
    bool stop_ = false;

    std::vector<std::thread> workers_;
};

} // namespace photon::serve

#endif // PHOTON_SERVE_SERVER_HPP
