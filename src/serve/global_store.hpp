/**
 * @file
 * The daemon's shared, cross-campaign kernel store: one mutex-guarded
 * Artifact (KernelCache records + online analyses + telemetry, grouped
 * by GPU) that every resident worker seeds from and publishes back to,
 * so a kernel any client ever simulated in detail is a cache hit for
 * every later client (paper Section 6.3 economics, made resident).
 *
 * On top of the campaign runner's SharedSignatureStore semantics this
 * adds:
 *  - aggregate counters (kernel-cache hits/misses/inserts, analysis
 *    reuse, dedup collapses, jobs executed) surfaced through
 *    `photon_sim status` / `photon_sim cache`;
 *  - the admission-fingerprint registry: spec -> learned GPU-BBV
 *    fingerprint (see serve/fingerprint.hpp);
 *  - periodic checkpointing plus reload on construction, so a daemon
 *    restart keeps the warm cache. A checkpoint appends one artifact v7
 *    batch holding exactly the records published and the traces
 *    captured since the previous one, so its cost follows the new
 *    records, not the store's history; a restart over a torn or
 *    corrupt tail keeps every batch before it.
 *
 * Every public method locks internally (PHOTON_PHASE_EXEMPT): callers
 * are the resident workers and the transport threads.
 */

#ifndef PHOTON_SERVE_GLOBAL_STORE_HPP
#define PHOTON_SERVE_GLOBAL_STORE_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/phase_annotations.hpp"
#include "service/artifact_store.hpp"
#include "service/campaign.hpp"

namespace photon::serve {

/** Aggregate counters across everything the store has served. */
struct StoreStats
{
    std::uint64_t cacheHits = 0;    ///< kernel-cache matches during runs
    std::uint64_t cacheMisses = 0;  ///< kernel-cache lookups that missed
    std::uint64_t cacheInserts = 0; ///< fresh records published
    std::uint64_t analysesReused = 0; ///< offline-mode analysis reuses
    std::uint64_t jobsExecuted = 0;   ///< jobs that ran on a worker
    std::uint64_t dedupCollapsed = 0; ///< requests folded onto a leader
    std::uint64_t checkpoints = 0;    ///< checkpoint files written
    std::uint64_t intervalHits = 0;   ///< interval-memo prediction hits
    std::uint64_t intervalMisses = 0; ///< interval-memo misses (fits run)
    /** Functional-trace reuse (DESIGN.md §15): launches replayed from
     *  the resident trace store vs. captured fresh by a worker. */
    std::uint64_t traceHits = 0;
    std::uint64_t traceMisses = 0;
    std::uint64_t traceCaptures = 0;
};

/** The resident cross-campaign store. */
class GlobalStore
{
  public:
    struct Options
    {
        /** Checkpoint file (a batched artifact, v7); "" disables
         *  persistence entirely. */
        std::string path;
        /** Write a checkpoint every N executed jobs (0 = only on
         *  drain). */
        std::uint32_t checkpointEvery = 8;
    };

    /** Loads the checkpoint at @p options.path when one exists; a
     *  missing file is a cold start. A partial or checksum-failing
     *  tail batch (a writer killed mid-append) is dropped with a
     *  warning and truncated away before the next append; a bad magic,
     *  version or pre-v7 body is fatal (refusing to silently discard a
     *  warm store). */
    explicit GlobalStore(Options options);
    GlobalStore();

    /** Seed for a fresh job: copies of one GPU's kernel records and
     *  analyses (empty when absent). Telemetry, which only grows and
     *  seeds nothing, is left out. */
    PHOTON_PHASE_EXEMPT
    service::StoreGroup snapshot(const std::string &gpu) const;

    /** Append fresh kernel records / analyses / telemetry from one
     *  finished job and fold its counter deltas into the stats. */
    PHOTON_PHASE_EXEMPT
    void publish(const std::string &gpu,
                 const std::vector<sampling::KernelRecord> &kernels,
                 const sampling::PhotonSampler::AnalysisStore &analyses,
                 const std::vector<sampling::KernelTelemetry> &telemetry);

    /** Fold one executed job's cache-counter deltas into the stats. */
    PHOTON_PHASE_EXEMPT
    void recordJobStats(std::uint64_t hits, std::uint64_t misses,
                        std::uint64_t inserts,
                        std::uint64_t analyses_reused,
                        std::uint64_t interval_hits = 0,
                        std::uint64_t interval_misses = 0);

    /** Fold one executed job's functional-trace counter deltas. */
    PHOTON_PHASE_EXEMPT
    void recordTraceStats(std::uint64_t hits, std::uint64_t misses,
                          std::uint64_t captures);

    /**
     * The resident functional-trace store workers attach to their
     * Platform (driver::Platform::setTraceStore). Traces are
     * micro-architecture independent, so one store serves every GPU;
     * its contents ride the artifact v5 checkpoint, making warm
     * restarts skip emulation entirely for known launches.
     */
    PHOTON_PHASE_EXEMPT func::TraceStore &traceStore();

    /** Traces currently resident (checkpoint + published). */
    PHOTON_PHASE_EXEMPT std::size_t numTraces() const;

    /**
     * Copy of one GPU's interval memos for seeding a fresh job's
     * sampler, counters reset (the sampler's totals then read as the
     * job's own deltas). Empty when the GPU has none.
     */
    PHOTON_PHASE_EXEMPT
    sampling::PhotonSampler::IntervalMemoStore
    snapshotIntervalMemos(const std::string &gpu) const;

    /** Merge one finished job's interval memos into the GPU's store
     *  (entries transfer in recency order; LRU bounds still apply). */
    PHOTON_PHASE_EXEMPT
    void publishIntervalMemos(
        const std::string &gpu,
        const sampling::PhotonSampler::IntervalMemoStore &memos);

    /** Total memo entries held across every GPU and kernel. */
    PHOTON_PHASE_EXEMPT std::size_t numIntervalMemoEntries() const;

    /** Count one admission-dedup collapse. */
    PHOTON_PHASE_EXEMPT
    void recordDedupCollapse();

    /**
     * Admission key for @p spec: the learned GPU-BBV fingerprint when
     * this spec has executed before (here or before a restart via the
     * registry rebuilt from re-execution), else the spec fingerprint.
     */
    PHOTON_PHASE_EXEMPT
    std::uint64_t admissionKey(const service::JobSpec &spec) const;

    /** Register the GPU-BBV fingerprint @p spec's kernels produced
     *  (0 is ignored: nothing was learned). */
    PHOTON_PHASE_EXEMPT
    void learnFingerprint(const service::JobSpec &spec,
                          std::uint64_t fingerprint);

    PHOTON_PHASE_EXEMPT StoreStats stats() const;
    PHOTON_PHASE_EXEMPT std::size_t numKernelRecords() const;
    PHOTON_PHASE_EXEMPT std::size_t numAnalyses() const;

    /** Copy of the whole artifact (drain export, tests). */
    PHOTON_PHASE_EXEMPT service::Artifact exportAll() const;

    /**
     * Called after every executed job: writes a checkpoint when the
     * configured interval elapsed and the store is dirty. Returns false
     * + @p error on I/O failure (the daemon logs and keeps running; the
     * unwritten records stay pending for the next checkpoint).
     */
    PHOTON_PHASE_EXEMPT bool maybeCheckpoint(std::string *error = nullptr);

    /** Unconditional flush (drain path); no-op without a path. */
    PHOTON_PHASE_EXEMPT bool checkpointNow(std::string *error = nullptr);

    const Options &options() const { return opts_; }

  private:
    /** Flush pending_ to opts_.path; the caller already holds mu_
     *  (enforced by the lint lock-set pass at every call site). Folds
     *  the traces captured since the last checkpoint into the batch
     *  first. The first checkpoint of a store without a v7 file writes
     *  the file; every later one appends. */
    PHOTON_REQUIRES_LOCK(mu_)
    bool writeCheckpointLocked(std::string *error);

    mutable std::mutex mu_;
    Options opts_;
    /** Internally synchronized (own mutex) — workers hit it on every
     *  launch, so it deliberately sits outside mu_. */
    PHOTON_SHARED_STATE
    func::TraceStore traceStore_;
    /** Everything resident. Its trace map holds every trace handed to
     *  a checkpoint batch (written or pending); the live set is
     *  traceStore_. */
    PHOTON_SHARED_STATE
    PHOTON_GUARDED_BY(mu_)
    service::Artifact store_;
    /** The next checkpoint's batch: records published (and traces
     *  captured) since the last successful one. */
    PHOTON_GUARDED_BY(mu_)
    service::Artifact pending_;
    /** opts_.path holds a v7 artifact the next batch can append to. */
    PHOTON_GUARDED_BY(mu_)
    bool appendable_ = false;
    /** Size to cut the file back to before the next append: the end of
     *  its last good batch when the load dropped a torn tail, else 0. */
    PHOTON_GUARDED_BY(mu_)
    std::uint64_t truncateTo_ = 0;
    PHOTON_SHARED_STATE
    PHOTON_GUARDED_BY(mu_)
    StoreStats stats_;
    /** spec label -> learned GPU-BBV fingerprint (in-memory only; the
     *  artifact format is unchanged, the registry re-learns after a
     *  restart from the first execution — or never needs to, when the
     *  warm cache answers the request without a detailed run). */
    PHOTON_GUARDED_BY(mu_)
    std::map<std::string, std::uint64_t> fingerprints_;
    /** gpu -> per-kernel interval memos (in-memory only, like the
     *  fingerprint registry: memos are a pure acceleration and rebuild
     *  from the first execution after a restart — the artifact format
     *  is unchanged). */
    PHOTON_GUARDED_BY(mu_)
    std::map<std::string, sampling::PhotonSampler::IntervalMemoStore>
        intervalMemos_;
    PHOTON_GUARDED_BY(mu_)
    std::uint32_t sinceCheckpoint_ = 0;
    PHOTON_GUARDED_BY(mu_)
    bool dirty_ = false;
};

} // namespace photon::serve

#endif // PHOTON_SERVE_GLOBAL_STORE_HPP
