#include "serve/fingerprint.hpp"

#include "sim/hash.hpp"

namespace photon::serve {

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
admissionKey(const service::JobSpec &spec)
{
    std::uint64_t h = fingerprintSpec(spec);
    if (spec.backend != "detailed")
        h = fnv1aString(h, spec.backend);
    return h;
}

} // namespace photon::serve
