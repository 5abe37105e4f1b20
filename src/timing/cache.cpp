#include "timing/cache.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace photon::timing {

SetAssocCache::SetAssocCache(const CacheConfig &cfg)
    : cfg_(cfg), setMask_(cfg.numSets() - 1),
      tags_(std::size_t{cfg.numSets()} * cfg.ways)
{
    PHOTON_ASSERT(cfg.numSets() > 0 && (cfg.numSets() & setMask_) == 0,
                  "cache set count must be a power of two");
}

bool
SetAssocCache::contains(std::uint64_t lineAddr) const
{
    const std::uint64_t *set =
        &tags_[std::size_t{lineAddr & setMask_} * cfg_.ways];
    return std::find(set, set + cfg_.ways, lineAddr + 1) != set + cfg_.ways;
}

void
SetAssocCache::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
}

} // namespace photon::timing
