#include "serve/fingerprint.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace photon::serve {

std::uint64_t
fingerprintGpuBbv(const sampling::GpuBbv &signature)
{
    std::uint64_t h = kFnvBasis;
    std::uint32_t dims = signature.dims();
    std::uint32_t clusters = signature.numClusters();
    h = fnv1a(h, &dims, sizeof(dims));
    h = fnv1a(h, &clusters, sizeof(clusters));
    for (double v : signature.vec()) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        h = fnv1a(h, &bits, sizeof(bits));
    }
    return h;
}

std::uint64_t
fingerprintSpec(const service::JobSpec &spec)
{
    std::uint64_t h = kFnvBasis;
    h = fnv1aString(h, spec.workload);
    h = fnv1a(h, &spec.size, sizeof(spec.size));
    h = fnv1aString(h, spec.mode);
    h = fnv1aString(h, spec.gpu);
    return h;
}

std::uint64_t
fingerprintAnalyses(const sampling::PhotonSampler::AnalysisStore &analyses,
                    const std::string &mode, const std::string &gpu)
{
    if (analyses.empty())
        return 0;
    std::vector<const std::string *> keys;
    keys.reserve(analyses.size());
    for (const auto &entry : analyses) // photon-lint: order-insensitive
        keys.push_back(&entry.first);
    std::sort(keys.begin(), keys.end(),
              [](const std::string *a, const std::string *b) {
                  return *a < *b;
              });
    std::uint64_t h = kFnvBasis;
    h = fnv1aString(h, mode);
    h = fnv1aString(h, gpu);
    for (const std::string *key : keys) {
        h = fnv1aString(h, *key);
        std::uint64_t sig = fingerprintGpuBbv(analyses.at(*key).signature);
        h = fnv1a(h, &sig, sizeof(sig));
    }
    return h;
}

} // namespace photon::serve
