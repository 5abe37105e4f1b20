/**
 * @file
 * Rare-basic-block handling (paper Figure 9): an online per-opcode
 * latency table filled during detailed simulation, plus an interval model
 * that predicts the execution time of basic blocks that were (almost)
 * never observed in detail, plus the interval memo — an LRU cache of
 * warp-BBV -> predicted-cycles results so the per-warp prediction walk
 * is paid once per distinct BBV instead of once per warp.
 */

#ifndef PHOTON_SAMPLING_INTERVAL_MODEL_HPP
#define PHOTON_SAMPLING_INTERVAL_MODEL_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/basic_block.hpp"
#include "isa/program.hpp"
#include "sampling/bbv.hpp"
#include "sim/config.hpp"
#include "sim/hash.hpp"
#include "sim/types.hpp"

namespace photon::sampling {

/** Fold one 64-bit word into an FNV-1a hash (sim/hash.hpp), byte by
 *  byte in little-endian order whatever the host's. */
inline std::uint64_t
memoMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
    return h;
}

/**
 * Mean observed completion latency per opcode, collected online during
 * the detailed phase. Opcodes never observed fall back to
 * configuration-derived defaults ("the latency of caches and ALUs").
 */
class InstLatencyTable
{
  public:
    explicit InstLatencyTable(const GpuConfig &cfg);

    /** Record one observed (issue -> complete) latency. */
    void
    record(isa::Opcode op, Cycle latency)
    {
        auto i = static_cast<std::size_t>(op);
        sum_[i] += static_cast<double>(latency);
        ++count_[i];
    }

    /** Mean observed latency, or the default for unseen opcodes. */
    double latency(isa::Opcode op) const;

    /** Observations recorded for @p op. */
    std::uint64_t
    observations(isa::Opcode op) const
    {
        return count_[static_cast<std::size_t>(op)];
    }

    /** Sum of observed latencies for @p op (0 when unobserved). */
    double
    observedSum(isa::Opcode op) const
    {
        return sum_[static_cast<std::size_t>(op)];
    }

    /** Bulk-merge previously aggregated observations — the transfer
     *  path that seeds an interval backend's fits from a detailed
     *  phase (equivalent to @p count record() calls summing to
     *  @p sum). */
    void
    seedObservations(isa::Opcode op, double sum, std::uint64_t count)
    {
        auto i = static_cast<std::size_t>(op);
        sum_[i] += sum;
        count_[i] += count;
    }

    /** FNV-1a digest of the table's observed state (sums and counts);
     *  two tables with equal fingerprints predict identically. */
    std::uint64_t fingerprint() const;

  private:
    double defaultLatency(isa::Opcode op) const;

    GpuConfig cfg_;
    std::array<double, isa::kNumOpcodes> sum_{};
    std::array<std::uint64_t, isa::kNumOpcodes> count_{};
};

/**
 * Interval model: predicts a basic block's execution time by walking its
 * instructions and accumulating per-opcode latencies. The timing model
 * issues a wavefront's instructions in order, with each instruction's
 * issue postponed past the completion of its predecessor (dependencies
 * through the single in-order stream), so the interval is the latency
 * sum.
 */
class IntervalModel
{
  public:
    /** Predict cycles for one static block. */
    static Cycle predictBb(const isa::Program &program,
                           const isa::BasicBlock &block,
                           const InstLatencyTable &table);
};

/**
 * Interval memo: a bounded LRU cache of warp-BBV fingerprint ->
 * predicted warp duration. The BB-sampling epilogue predicts every
 * remaining warp from its dynamic BBV, and real kernels concentrate
 * thousands of warps onto a handful of distinct BBVs — the memo turns
 * the per-warp (blocks x lane-buckets) prediction walk into a hash
 * lookup after the first warp of each behaviour class.
 *
 * A memo is only valid for one frozen predictor state (detector means
 * and latency table at prediction time); callers key memo instances by
 * launch + BbSampler::stateFingerprint() so a hit is exactly the value
 * a recomputation would produce. Eviction is strict LRU and insertion
 * order is the (deterministic) warp-trace order, so two runs of the
 * same job hold bit-identical memo contents — exportEntries()/seed()
 * round-trip that state across jobs (the photond warm path).
 */
class IntervalMemo
{
  public:
    /** Default entry capacity: comfortably above the distinct-BBV count
     *  of every workload in the suite, small enough that a daemon
     *  hosting many kernels stays bounded. */
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit IntervalMemo(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity ? capacity : 1)
    {}

    /** FNV-1a fingerprint of a BBV's nonzero (slot, count) pairs. */
    static std::uint64_t fingerprint(const Bbv &bbv);

    /** Look up @p key; on a hit promotes the entry to most-recent and
     *  stores the cycles through @p cycles. Counts hits/misses.
     *  NOTE: a mutating read (LRU touch + counters) — deliberately NOT
     *  PHOTON_SHARED_STATE: every live memo has a single owner (one
     *  sampler per job); cross-job copies in GlobalStore are rebuilt
     *  via exportEntries()/seed() under the store mutex. */
    bool lookup(std::uint64_t key, Cycle *cycles);

    /** Insert (or refresh) @p key as the most-recent entry, evicting
     *  the least-recently-used entry when at capacity. */
    void insert(std::uint64_t key, Cycle cycles);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::size_t size() const { return index_.size(); }
    std::size_t capacity() const { return capacity_; }

    using Entry = std::pair<std::uint64_t, Cycle>;

    /** Entries in least- to most-recently-used order, so seeding a
     *  fresh memo with them reproduces this memo's recency order. */
    std::vector<Entry> exportEntries() const;

    /** Bulk-insert exported entries (no hit/miss accounting — seeding
     *  is a transfer, not a workload access pattern). */
    void seed(const std::vector<Entry> &entries);

  private:
    void insertInternal(std::uint64_t key, Cycle cycles);

    std::size_t capacity_;
    std::list<Entry> order_; ///< front = most recent, back = LRU
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace photon::sampling

#endif // PHOTON_SAMPLING_INTERVAL_MODEL_HPP
