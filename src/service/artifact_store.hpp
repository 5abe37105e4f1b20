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
 *  and the dropped fields discarded. */
inline constexpr std::uint32_t kArtifactVersion = 6;

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

/** Serialize @p artifact to the binary format (deterministic: map
 *  iteration order is sorted, analysis keys are sorted). */
std::string serializeArtifact(const Artifact &artifact);

/** Parse a serialized artifact; on failure @p out is left empty. */
LoadStatus deserializeArtifact(std::string_view bytes, Artifact &out);

/** Write @p artifact to @p path; returns ok=false on I/O failure.
 *  Persisted artifacts must be bit-identical across reruns, so a
 *  nondeterministic value reaching this writer is a bug. */
PHOTON_DET_SINK
LoadStatus saveArtifact(const Artifact &artifact, const std::string &path);

/** Read an artifact from @p path (I/O, magic, version and structural
 *  errors are all reported through the status). */
LoadStatus loadArtifact(const std::string &path, Artifact &out);

} // namespace photon::service

#endif // PHOTON_SERVICE_ARTIFACT_STORE_HPP
