#include "timing/dram.hpp"

#include "sim/log.hpp"

namespace photon::timing {

Dram::Dram(const DramConfig &cfg)
    : cfg_(cfg), bankMask_(cfg.numBanks - 1), bankFree_(cfg.numBanks, 0)
{
    PHOTON_ASSERT(cfg.numBanks > 0 && (cfg.numBanks & bankMask_) == 0,
                  "dram.numBanks must be a nonzero power of two");
}

Cycle
Dram::access(std::uint64_t lineAddr, Cycle now)
{
    std::uint32_t bank = lineAddr & bankMask_;
    Cycle start = now > bankFree_[bank] ? now : bankFree_[bank];
    queueingCycles_ += start - now;
    bankFree_[bank] = start + cfg_.cyclesPerLine;
    ++accesses_;
    return start + cfg_.accessLatency;
}

} // namespace photon::timing
