/**
 * @file
 * Banked DRAM model: per-bank service queues expressed as next-free
 * timestamps, giving both a fixed access latency and a bandwidth limit
 * whose queueing delay depends on the access pattern.
 */

#ifndef PHOTON_TIMING_DRAM_HPP
#define PHOTON_TIMING_DRAM_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace photon::timing {

/** Banked DRAM. Banks are interleaved at line granularity; the bank
 *  count is a power of two. */
class Dram
{
  public:
    explicit Dram(const DramConfig &cfg);

    /**
     * Request one line starting no earlier than @p now.
     * @return the cycle the data is available.
     */
    Cycle access(std::uint64_t lineAddr, Cycle now);

    std::uint64_t accesses() const { return accesses_; }

    /** Total cycles requests spent queueing behind busy banks. */
    std::uint64_t queueingCycles() const { return queueingCycles_; }

  private:
    DramConfig cfg_;
    std::uint32_t bankMask_; ///< numBanks - 1 (a power of two)
    std::vector<Cycle> bankFree_;
    std::uint64_t accesses_ = 0;
    std::uint64_t queueingCycles_ = 0;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_DRAM_HPP
