/**
 * @file
 * The parallel campaign runner: executes a batch of simulation jobs
 * across a fixed-size thread pool. Every job runs through runJob(), the
 * one job executor the campaign runner and photond's resident workers
 * share: it builds a private Platform per job, so each job's simulation
 * is bit-identical to a serial run.
 * Two stores cross jobs: the SharedSignatureStore, through which
 * finished jobs publish their kernel signatures and online analyses so
 * later jobs get kernel-sampling hits (paper Section 6.3 reuse, applied
 * within one process), and one functional-trace store, so a launch any
 * job captured replays for every later job (CampaignOptions::traceReuse;
 * a trace is a pure function of its key, so sharing changes no result).
 *
 * Share policies:
 *  - none:    jobs see only the campaign's seed store (from --cache-in);
 *             their records are published in job order after the run,
 *             so the final store is the same for any worker count.
 *  - ordered: Photon jobs on the same GPU form an ordered chain — job i
 *             imports exactly what jobs j < i of its chain published, so
 *             results are identical for any worker count. Chains on
 *             different GPUs (and all full/pka jobs) run in parallel.
 *  - live:    jobs import whatever has been published when they start.
 *             Maximum reuse, but results depend on completion order.
 *
 * Scheduling: chains are spread round-robin over per-worker
 * work-stealing deques (service/work_steal.hpp); a worker that drains
 * its own lane steals the back half of a neighbour's, so skewed job
 * costs can't strand queued work behind one long straggler. Stealing
 * is always on; it moves whole chains between workers and never splits
 * or reorders one, so the ordered policy's determinism argument is
 * untouched.
 */

#ifndef PHOTON_SERVICE_CAMPAIGN_RUNNER_HPP
#define PHOTON_SERVICE_CAMPAIGN_RUNNER_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/artifact_store.hpp"
#include "service/campaign.hpp"
#include "sim/config.hpp"

namespace photon::service {

/** How jobs of one campaign share finished kernel signatures. */
enum class SharePolicy
{
    None,    ///< seed store only; jobs fully independent
    Ordered, ///< deterministic per-GPU chains (the default)
    Live,    ///< import the latest published state (order-dependent)
};

const char *sharePolicyName(SharePolicy policy);

/** Parse a policy name; false + untouched @p out on failure. */
bool parseSharePolicy(const std::string &name, SharePolicy &out,
                      std::string *error = nullptr);

/**
 * Mutex-guarded cross-job store of finished kernel signatures and
 * online analyses, grouped by GPU configuration name. Workers snapshot
 * a group before a job and publish the job's new records after it.
 */
class SharedSignatureStore
{
  public:
    explicit SharedSignatureStore(Artifact seed = {})
        : store_(std::move(seed))
    {}

    /** Copy of one GPU's group (empty group if absent). */
    StoreGroup snapshot(const std::string &gpu) const;

    /** Append kernel records and merge analyses (first entry wins, so
     *  re-published identical analyses are no-ops). */
    void publish(const std::string &gpu,
                 const std::vector<sampling::KernelRecord> &kernels,
                 const sampling::PhotonSampler::AnalysisStore &analyses);

    /** Copy of the whole store (seed + everything published). */
    Artifact exportAll() const;

  private:
    mutable std::mutex mu_;
    Artifact store_;
};

/** Runner configuration. */
struct CampaignOptions
{
    std::uint32_t workers = 1; ///< thread-pool size (0 behaves as 1)
    SharePolicy share = SharePolicy::Ordered;
    SamplingConfig sampling{};
    /** Workers share one functional-trace store (DESIGN.md §15),
     *  seeded from the seed artifact's traces and exported in
     *  CampaignResult::finalStore: the first full-mode job of a
     *  (program, launch, input) captures, every later job replays.
     *  Trace content is a pure function of its key, so sharing is
     *  schedule-independent under every share policy. false gives each
     *  job's Platform its own private store (it still captures and
     *  replays its own launches), and finalStore carries only the
     *  seed's traces. Results are bit-identical either way. The field
     *  stays because the benchmark driver (perfbench/dse_sweep.cpp)
     *  assigns it. */
    bool traceReuse = true;
};

/** A finished job plus the state it wants to publish. */
struct JobOutput
{
    JobResult result;
    /** Kernel records the job added on top of its seed. */
    std::vector<sampling::KernelRecord> freshKernels;
    /** The job's whole analysis store (seeded entries included). */
    sampling::PhotonSampler::AnalysisStore analyses;
};

/**
 * Run one job on a private Platform. A Photon job's kernel cache and
 * analysis store are seeded from @p seed; non-Photon modes ignore it.
 * @p traces, when non-null, is the functional-trace store the Platform
 * replays from and captures into. The spec must already validate.
 */
JobOutput runJob(const JobSpec &spec, const SamplingConfig &sampling,
                 StoreGroup seed, func::TraceStore *traces);

/**
 * Run @p jobs under @p options, seeding every Photon job from
 * @p seed's matching GPU group. Jobs must already validate
 * (validateJob); the runner refuses invalid specs up front.
 */
CampaignResult runCampaign(const std::vector<JobSpec> &jobs,
                           const CampaignOptions &options,
                           Artifact seed = {});

} // namespace photon::service

#endif // PHOTON_SERVICE_CAMPAIGN_RUNNER_HPP
