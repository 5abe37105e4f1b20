#include "sampling/interval_model.hpp"

#include <cmath>

namespace photon::sampling {

InstLatencyTable::InstLatencyTable(const GpuConfig &cfg) : cfg_(cfg)
{}

double
InstLatencyTable::defaultLatency(isa::Opcode op) const
{
    using isa::FuncUnit;
    switch (isa::opcodeInfo(op).unit) {
      case FuncUnit::SALU:
      case FuncUnit::BRANCH:
        return static_cast<double>(cfg_.saluLatency);
      case FuncUnit::VALU:
        return static_cast<double>(cfg_.valuLatency);
      case FuncUnit::VALU4:
        return static_cast<double>(4 * cfg_.valuLatency);
      case FuncUnit::LDS:
        return static_cast<double>(cfg_.ldsLatency);
      case FuncUnit::SMEM:
        return static_cast<double>(cfg_.l1k.hitLatency +
                                   cfg_.l2.hitLatency);
      case FuncUnit::VMEM:
        return static_cast<double>(cfg_.l1v.hitLatency +
                                   cfg_.l2.hitLatency);
      case FuncUnit::SYNC:
        return 1.0;
    }
    return 1.0;
}

double
InstLatencyTable::latency(isa::Opcode op) const
{
    auto i = static_cast<std::size_t>(op);
    if (count_[i] == 0)
        return defaultLatency(op);
    return sum_[i] / static_cast<double>(count_[i]);
}

Cycle
IntervalModel::predictBb(const isa::Program &program,
                         const isa::BasicBlock &block,
                         const InstLatencyTable &table)
{
    double total = 0.0;
    for (std::uint32_t pc = block.startPc; pc <= block.endPc(); ++pc)
        total += table.latency(program.at(pc).op);
    return static_cast<Cycle>(std::llround(total));
}

} // namespace photon::sampling
