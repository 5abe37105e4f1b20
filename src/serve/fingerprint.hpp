/**
 * @file
 * The request key of the daemon's admission dedup: a hash of the
 * canonical job fields (workload/size/mode/gpu, plus a non-default
 * backend). An answer is a function of the spec, the server's
 * SamplingConfig and the GPU group of the shared store it read, so two
 * requests with one key ride one run while that group is unchanged
 * (serve/server.hpp).
 *
 * Hashing is 64-bit FNV-1a (sim/hash.hpp) over the exact field bytes,
 * so a key is stable across processes and restarts.
 */

#ifndef PHOTON_SERVE_FINGERPRINT_HPP
#define PHOTON_SERVE_FINGERPRINT_HPP

#include <cstdint>

#include "service/campaign.hpp"

namespace photon::serve {

/** Spec fingerprint: canonical job fields only. */
std::uint64_t fingerprintSpec(const service::JobSpec &spec);

/**
 * Admission key for @p spec: its spec fingerprint salted with the
 * backend, so a detailed and an interval run of one job never share an
 * answer. The default backend folds nothing, so keys of pre-backend
 * specs are unchanged.
 */
std::uint64_t admissionKey(const service::JobSpec &spec);

} // namespace photon::serve

#endif // PHOTON_SERVE_FINGERPRINT_HPP
