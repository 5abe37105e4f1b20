/**
 * @file
 * Versioned binary serialization of Photon's reusable per-run state: the
 * kernel-signature cache (KernelRecord + GpuBbv) and the online-analysis
 * store (paper Section 6.3, offline mode). Kernel records are
 * micro-architecture specific, so the artifact groups everything by GPU
 * configuration name; a campaign or a later process seeds fresh
 * PhotonSamplers from the matching group and gets kernel-sampling hits
 * without re-simulating.
 *
 * The format is explicitly little-endian and carries a magic + version
 * header; loaders reject unknown versions and truncated or corrupt input
 * with a diagnostic instead of crashing.
 *
 * Since v7 the header is followed by one or more checksummed *batches*:
 *
 *   file  := "PHAS" u32 version batch*
 *   batch := u64 body_len  body[body_len]  u64 fnv1a64(body)
 *   body  := the v6 section layout (groups, then traces)
 *
 * Loading merges the batches in order with the daemon store's publish
 * rules: kernel records and telemetry append, analyses and traces are
 * first-wins. saveArtifact writes a one-batch file; appendArtifact adds
 * one batch, so a store that only grows persists each record once.
 */

#ifndef PHOTON_SERVICE_ARTIFACT_STORE_HPP
#define PHOTON_SERVICE_ARTIFACT_STORE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "func/warp_trace.hpp"
#include "sampling/kernel_cache.hpp"
#include "sampling/photon.hpp"
#include "sim/phase_annotations.hpp"

namespace photon::service {

/** Current on-disk format version; bumped on any layout change.
 *  v1: kernels + analyses per group. v2: adds the per-launch telemetry
 *  section (loaders still accept v1 — the section is simply absent).
 *  v3: telemetry records gain wall_seconds + epoch-synchronization
 *  statistics (telemetry schema v2); v2 records load with those fields
 *  at their zero defaults.
 *  v4: telemetry records gain the timing-backend fields (backend name,
 *  per-backend cycle split, hasDetailedStats; telemetry schema v3);
 *  v3 records load as detailed-backend with full detailed stats.
 *  v5: adds the top-level functional-trace section (captured
 *  LaunchTrace blobs keyed by func::traceKey). Traces are
 *  micro-architecture independent, so they live outside the per-GPU
 *  groups; v1..v4 artifacts load with an empty trace map.
 *  v6: telemetry records drop the epoch statistics and
 *  hasDetailedStats (telemetry schema v4); v3..v5 records are read
 *  and the dropped fields discarded.
 *  v7: the body becomes a sequence of length-prefixed batches, each
 *  followed by an FNV-1a 64 checksum of its bytes, so a checkpoint
 *  appends only what changed and a torn or flipped tail is detected;
 *  telemetry records gain no_switch_reason and hooks_released_cycle
 *  (telemetry schema v5), which v1..v6 records load as "" and
 *  kNoCycle. */
inline constexpr std::uint32_t kArtifactVersion = 7;

/** Reusable state produced by runs on one GPU configuration. */
struct StoreGroup
{
    std::vector<sampling::KernelRecord> kernels;
    sampling::PhotonSampler::AnalysisStore analyses;
    /** Per-launch telemetry published by runs on this GPU (v2+). */
    std::vector<sampling::KernelTelemetry> telemetry;

    bool
    empty() const
    {
        return kernels.empty() && analyses.empty() && telemetry.empty();
    }
};

/** Everything a run (or campaign) can persist, keyed by GPU name. */
struct Artifact
{
    std::map<std::string, StoreGroup> groups;

    /** Captured functional traces keyed by func::traceKey() —
     *  micro-architecture independent, shared by every GPU group
     *  (v5+). The map matches TraceStore::exportAll()/import(). */
    std::map<std::string, func::LaunchTracePtr> traces;

    StoreGroup &group(const std::string &gpu) { return groups[gpu]; }

    /** Total kernel records across all groups. */
    std::size_t numKernelRecords() const;
    /** Total analysis entries across all groups. */
    std::size_t numAnalyses() const;
    /** Total telemetry records across all groups. */
    std::size_t numTelemetryRecords() const;
};

/** Outcome of a deserialization attempt. */
struct LoadStatus
{
    bool ok = true;
    std::string error;

    static LoadStatus
    fail(std::string why)
    {
        return {false, std::move(why)};
    }
};

/** Serialize @p artifact as a one-batch file (deterministic: map
 *  iteration order is sorted, analysis keys are sorted). */
std::string serializeArtifact(const Artifact &artifact);

/** Parse a serialized artifact, merging every batch; any bad batch
 *  fails the whole parse, and on failure @p out is left empty. */
LoadStatus deserializeArtifact(std::string_view bytes, Artifact &out);

/** Write @p artifact to @p path as a one-batch file; returns ok=false
 *  on I/O failure. Persisted artifacts must be bit-identical across
 *  reruns, so a nondeterministic value reaching this writer is a bug. */
PHOTON_DET_SINK
LoadStatus saveArtifact(const Artifact &artifact, const std::string &path);

/** Append @p batch as one more batch to the current-version artifact
 *  at @p path. A failed write (short write, full disk) truncates the
 *  file back to its size before the call, so the file never keeps a
 *  partial batch this process could have removed. */
PHOTON_DET_SINK
LoadStatus appendArtifact(const Artifact &batch, const std::string &path);

/** Read an artifact from @p path (I/O, magic, version, checksum and
 *  structural errors are all reported through the status; nothing is
 *  loaded partially). */
LoadStatus loadArtifact(const std::string &path, Artifact &out);

/** What loadArtifactPrefix recovered from one file. */
struct PrefixLoad
{
    /** Fatal problems only: I/O, magic, version, or a pre-v7 body that
     *  does not parse. A bad v7 batch is not fatal (see tailError). */
    LoadStatus status;
    std::uint32_t version = 0; ///< the file's format version
    std::uint64_t fileBytes = 0;
    /** Bytes through the last good batch: where the next batch belongs.
     *  Equals fileBytes when every batch is intact. */
    std::uint64_t goodBytes = 0;
    std::size_t batches = 0;  ///< good batches merged into the output
    std::string tailError;    ///< why the first bad batch was rejected
};

/**
 * Read every intact batch of @p path in order and stop at the first
 * partial or checksum-failing one: the restart path of a store whose
 * writer may have died mid-append. @p out holds the batches before the
 * bad one; pre-v7 files have no batches and load all or nothing.
 */
PrefixLoad loadArtifactPrefix(const std::string &path, Artifact &out);

} // namespace photon::service

#endif // PHOTON_SERVICE_ARTIFACT_STORE_HPP
