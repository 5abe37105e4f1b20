#include "serve/global_store.hpp"

#include <filesystem>
#include <fstream>

#include "sim/log.hpp"

namespace photon::serve {

GlobalStore::GlobalStore() : GlobalStore(Options{}) {}

GlobalStore::GlobalStore(Options options) : opts_(std::move(options))
{
    if (opts_.path.empty())
        return;
    std::ifstream probe(opts_.path, std::ios::binary);
    if (!probe)
        return; // cold start
    probe.close();
    service::PrefixLoad load =
        service::loadArtifactPrefix(opts_.path, store_);
    if (!load.status.ok) {
        fatal("serve store '", opts_.path,
              "': refusing to start over a corrupt checkpoint: ",
              load.status.error);
    }
    if (!load.tailError.empty()) {
        // A writer killed mid-append: keep every batch before the bad
        // one and cut the file back to them before the next append.
        warn("serve store '", opts_.path, "': dropped ",
             load.fileBytes - load.goodBytes,
             " bytes after its last good batch (", load.tailError,
             "); batches kept: ", load.batches);
        truncateTo_ = load.goodBytes;
    }
    if (load.version == service::kArtifactVersion) {
        appendable_ = true;
    } else {
        // A pre-v7 file takes no batches: the first checkpoint rewrites
        // it whole, as it writes a cold store's first file.
        pending_ = store_;
    }
    // Warm restart: re-seed the resident trace store from the
    // checkpoint's trace section.
    traceStore_.import(store_.traces);
}

service::StoreGroup
GlobalStore::snapshot(const std::string &gpu,
                      std::uint64_t *generation) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto gen = generations_.find(gpu);
    *generation = gen != generations_.end() ? gen->second : 0;
    service::StoreGroup seed;
    auto it = store_.groups.find(gpu);
    if (it != store_.groups.end()) {
        seed.kernels = it->second.kernels;
        seed.analyses = it->second.analyses;
    }
    return seed;
}

std::uint64_t
GlobalStore::generation(const std::string &gpu) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = generations_.find(gpu);
    return it != generations_.end() ? it->second : 0;
}

void
GlobalStore::publish(
    const std::string &gpu,
    const std::vector<sampling::KernelRecord> &kernels,
    const sampling::PhotonSampler::AnalysisStore &analyses,
    const std::vector<sampling::KernelTelemetry> &telemetry)
{
    std::lock_guard<std::mutex> lock(mu_);
    service::StoreGroup &g = store_.groups[gpu];
    service::StoreGroup &fresh = pending_.groups[gpu];
    g.kernels.insert(g.kernels.end(), kernels.begin(), kernels.end());
    fresh.kernels.insert(fresh.kernels.end(), kernels.begin(),
                         kernels.end());
    // First entry wins: an analysis is a pure function of the launch,
    // so re-published duplicates are identical and can be dropped.
    bool fresh_analysis = false;
    for (const auto &[key, analysis] : analyses) {
        if (g.analyses.emplace(key, analysis).second) {
            fresh.analyses.emplace(key, analysis);
            fresh_analysis = true;
        }
    }
    g.telemetry.insert(g.telemetry.end(), telemetry.begin(),
                       telemetry.end());
    fresh.telemetry.insert(fresh.telemetry.end(), telemetry.begin(),
                           telemetry.end());
    // The seed a job of this GPU would read changed: an answer computed
    // from the old one may no longer be the answer.
    if (!kernels.empty() || fresh_analysis)
        ++generations_[gpu];
    if (!kernels.empty() || fresh_analysis || !telemetry.empty())
        dirty_ = true;
}

void
GlobalStore::recordJobStats(std::uint64_t hits, std::uint64_t misses,
                            std::uint64_t inserts,
                            std::uint64_t analyses_reused)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.cacheHits += hits;
    stats_.cacheMisses += misses;
    stats_.cacheInserts += inserts;
    stats_.analysesReused += analyses_reused;
    ++stats_.jobsExecuted;
    ++sinceCheckpoint_;
}

void
GlobalStore::recordTraceStats(std::uint64_t hits, std::uint64_t misses,
                              std::uint64_t captures)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.traceHits += hits;
    stats_.traceMisses += misses;
    stats_.traceCaptures += captures;
}

func::TraceStore &
GlobalStore::traceStore()
{
    return traceStore_;
}

std::size_t
GlobalStore::numTraces() const
{
    return traceStore_.size();
}

void
GlobalStore::recordDedupCollapse()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.dedupCollapsed;
}

StoreStats
GlobalStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
GlobalStore::numKernelRecords() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return store_.numKernelRecords();
}

std::size_t
GlobalStore::numAnalyses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return store_.numAnalyses();
}

service::Artifact
GlobalStore::exportAll() const
{
    // The trace store's snapshot takes (and releases) its own mutex;
    // TraceStore never acquires mu_, so nesting cannot deadlock.
    std::map<std::string, func::LaunchTracePtr> traces =
        traceStore_.exportAll();
    std::lock_guard<std::mutex> lock(mu_);
    service::Artifact out = store_;
    out.traces = std::move(traces);
    return out;
}

bool
GlobalStore::writeCheckpointLocked(std::string *error)
{
    if (opts_.path.empty())
        return true;
    // Fold freshly captured traces into the batch. store_.traces holds
    // every trace already persisted or pending, and the trace store
    // only grows (first-wins), so equal sizes mean nothing is new.
    if (traceStore_.size() != store_.traces.size()) {
        for (const auto &[key, trace] : traceStore_.exportAll()) {
            if (store_.traces.emplace(key, trace).second)
                pending_.traces.emplace(key, trace);
        }
        dirty_ = true;
    }
    if (!dirty_)
        return true;
    if (truncateTo_) {
        std::error_code ec;
        std::filesystem::resize_file(opts_.path, truncateTo_, ec);
        if (ec) {
            if (error)
                *error = "cannot drop the torn tail of '" + opts_.path +
                         "': " + ec.message();
            return false;
        }
        truncateTo_ = 0;
    }
    service::LoadStatus st =
        appendable_ ? service::appendArtifact(pending_, opts_.path)
                    : service::saveArtifact(pending_, opts_.path);
    if (!st.ok) {
        if (error)
            *error = st.error;
        return false; // pending_ stays queued for the next checkpoint
    }
    pending_ = service::Artifact{};
    appendable_ = true;
    dirty_ = false;
    sinceCheckpoint_ = 0;
    ++stats_.checkpoints;
    return true;
}

bool
GlobalStore::maybeCheckpoint(std::string *error)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!opts_.checkpointEvery || sinceCheckpoint_ < opts_.checkpointEvery)
        return true;
    return writeCheckpointLocked(error);
}

bool
GlobalStore::checkpointNow(std::string *error)
{
    std::lock_guard<std::mutex> lock(mu_);
    return writeCheckpointLocked(error);
}

} // namespace photon::serve
