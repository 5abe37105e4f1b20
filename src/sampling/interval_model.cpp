#include "sampling/interval_model.hpp"

#include <cmath>
#include <cstring>

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

std::uint64_t
InstLatencyTable::fingerprint() const
{
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < count_.size(); ++i) {
        if (count_[i] == 0)
            continue;
        h = memoMix(h, i);
        h = memoMix(h, count_[i]);
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(sum_[i]));
        std::memcpy(&bits, &sum_[i], sizeof(bits));
        h = memoMix(h, bits);
    }
    return h;
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

std::uint64_t
IntervalMemo::fingerprint(const Bbv &bbv)
{
    std::uint64_t h = kFnvBasis;
    const auto &counts = bbv.counts();
    for (std::uint32_t s = 0; s < counts.size(); ++s) {
        if (counts[s] == 0)
            continue;
        h = memoMix(h, s);
        h = memoMix(h, counts[s]);
    }
    return h;
}

bool
IntervalMemo::lookup(std::uint64_t key, Cycle *cycles)
{
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    *cycles = it->second->second;
    return true;
}

void
IntervalMemo::insert(std::uint64_t key, Cycle cycles)
{
    insertInternal(key, cycles);
}

void
IntervalMemo::insertInternal(std::uint64_t key, Cycle cycles)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = cycles;
        order_.splice(order_.begin(), order_, it->second);
        return;
    }
    if (index_.size() >= capacity_) {
        index_.erase(order_.back().first);
        order_.pop_back();
        ++evictions_;
    }
    order_.emplace_front(key, cycles);
    index_.emplace(key, order_.begin());
}

std::vector<IntervalMemo::Entry>
IntervalMemo::exportEntries() const
{
    return {order_.rbegin(), order_.rend()};
}

void
IntervalMemo::seed(const std::vector<Entry> &entries)
{
    for (const Entry &e : entries)
        insertInternal(e.first, e.second);
}

} // namespace photon::sampling
