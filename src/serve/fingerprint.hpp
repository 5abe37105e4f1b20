/**
 * @file
 * Request fingerprints for the daemon's admission dedup (ROADMAP:
 * "admission dedup by GPU-BBV fingerprint"). Two identities exist for a
 * simulation request:
 *
 *  - the *spec* fingerprint — a hash of the canonical job fields
 *    (workload/size/mode/gpu). Always available, used at admission for
 *    requests the server has never executed.
 *  - the *GPU-BBV* fingerprint — a hash over the GPU-BBV signatures the
 *    request's kernels actually produced (plus mode and GPU, since
 *    kernel records are micro-architecture specific). Learned after the
 *    first execution and registered with the global store; from then on
 *    admission keys on it, so two *differently spelled* requests whose
 *    kernels reduce to identical GPU BBVs collapse onto one in-flight
 *    run.
 *
 * All hashing is 64-bit FNV-1a (sim/hash.hpp) over exact byte
 * patterns; the online analysis is deterministic, so identical launches
 * hash identically across processes and restarts.
 */

#ifndef PHOTON_SERVE_FINGERPRINT_HPP
#define PHOTON_SERVE_FINGERPRINT_HPP

#include <cstdint>
#include <string>

#include "sampling/gpu_bbv.hpp"
#include "sampling/photon.hpp"
#include "service/campaign.hpp"
#include "sim/hash.hpp"

namespace photon::serve {

/** Hash one GPU-BBV signature (dims, clusters, exact vector bits). */
std::uint64_t fingerprintGpuBbv(const sampling::GpuBbv &signature);

/** Spec fingerprint: canonical job fields only. */
std::uint64_t fingerprintSpec(const service::JobSpec &spec);

/**
 * GPU-BBV fingerprint of one executed request: the per-launch GPU-BBV
 * hashes of its analysis store (sorted by launch key, so the unordered
 * container's iteration order cannot leak in), salted with mode + GPU.
 * Returns 0 when the store is empty (nothing to key on).
 */
std::uint64_t
fingerprintAnalyses(const sampling::PhotonSampler::AnalysisStore &analyses,
                    const std::string &mode, const std::string &gpu);

} // namespace photon::serve

#endif // PHOTON_SERVE_FINGERPRINT_HPP
