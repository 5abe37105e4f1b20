/**
 * @file
 * Rare-basic-block handling (paper Figure 9): an online per-opcode
 * latency table filled during detailed simulation, plus an interval model
 * that predicts the execution time of basic blocks that were (almost)
 * never observed in detail.
 */

#ifndef PHOTON_SAMPLING_INTERVAL_MODEL_HPP
#define PHOTON_SAMPLING_INTERVAL_MODEL_HPP

#include <array>
#include <cstddef>
#include <cstdint>

#include "isa/basic_block.hpp"
#include "isa/program.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace photon::sampling {

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

} // namespace photon::sampling

#endif // PHOTON_SAMPLING_INTERVAL_MODEL_HPP
