#include "timing/backend.hpp"

namespace photon::timing {

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Detailed: return "detailed";
      case BackendKind::Interval: return "interval";
    }
    return "?";
}

bool
parseBackendKind(std::string_view name, BackendKind &out)
{
    if (name == "detailed") out = BackendKind::Detailed;
    else if (name == "interval") out = BackendKind::Interval;
    else return false;
    return true;
}

} // namespace photon::timing
