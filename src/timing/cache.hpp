/**
 * @file
 * A timestamp-based set-associative cache model. Rather than queueing
 * discrete events, the model keeps tag/LRU state plus a port next-free
 * counter, which yields contention-dependent latencies at a fraction of
 * the cost of a full event-driven cache.
 *
 * Each set is a recency-ordered list of `line + 1` tags, `ways` slots
 * long and contiguous in memory: slot 0 holds the most recently used
 * line, the last slot the least recently used one, and 0 marks an
 * empty slot. Lines enter only at the front, so the valid lines always
 * form a prefix of the list. A probe scans the list and moves the line
 * to the front; a miss fills the front and shifts the rest back one
 * slot, dropping the last. That is the classic "first invalid way,
 * else least recently used" victim rule: while the set has an empty
 * slot nothing is dropped, and once it is full the dropped back slot is
 * the LRU line. Which physical way a line sits in never decides a hit
 * or a victim, so the list reproduces a timestamp-LRU cache's outcomes
 * exactly while storing one 8-byte word per way and no use clock.
 */

#ifndef PHOTON_TIMING_CACHE_HPP
#define PHOTON_TIMING_CACHE_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace photon::timing {

/**
 * Set-associative cache with LRU replacement, addressed by line number
 * (byte address / line size). Fill-on-miss happens at probe time.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg);

    /**
     * Look up @p lineAddr, updating LRU state; on a miss the line is
     * allocated (evicting the LRU line once the set is full).
     *
     * @return true on hit.
     */
    bool
    probe(std::uint64_t lineAddr)
    {
        // The full line id is the tag, so there is no aliasing.
        std::uint64_t tag = lineAddr + 1;
        std::uint64_t *set =
            &tags_[std::size_t{lineAddr & setMask_} * cfg_.ways];
        // Stop at the line, the first empty slot, or the last slot
        // (the victim when the set is full).
        std::uint32_t w = 0;
        std::uint32_t last = cfg_.ways - 1;
        while (w < last && set[w] != tag && set[w] != 0)
            ++w;
        bool hit = set[w] == tag;
        for (; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = tag;
        hits_ += hit;
        misses_ += !hit;
        return hit;
    }

    /** Look up without allocating or touching LRU (for tests/tools). */
    bool contains(std::uint64_t lineAddr) const;

    /** Invalidate all lines (between kernels this is NOT called — caches
     *  stay warm across launches, as on real hardware). */
    void flush();

    /** Reserve the (single) port starting no earlier than @p now;
     *  returns the cycle at which this access actually occupies the
     *  port. Each access holds the port for one cycle. */
    Cycle
    reservePort(Cycle now)
    {
        Cycle t = now > portFree_ ? now : portFree_;
        portFree_ = t + 1;
        return t;
    }

    Cycle hitLatency() const { return cfg_.hitLatency; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint32_t numSets() const { return setMask_ + 1; }
    std::uint32_t ways() const { return cfg_.ways; }

  private:
    CacheConfig cfg_;
    std::uint32_t setMask_; ///< set count - 1 (the count is a power of 2)
    /** numSets x ways `line + 1` tags, set-major, each set MRU first;
     *  0 is an empty slot. */
    std::vector<std::uint64_t> tags_;
    Cycle portFree_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_CACHE_HPP
