#include "timing/scheduler_model.hpp"

#include <algorithm>

namespace photon::timing {

SchedulerModel::SchedulerModel(std::uint32_t num_slots, Cycle start_cycle)
    : SchedulerModel(num_slots, start_cycle, {})
{}

SchedulerModel::SchedulerModel(std::uint32_t num_slots, Cycle start_cycle,
                               std::vector<Cycle> slot_free_times)
    : end_(start_cycle)
{
    std::vector<Cycle> init = std::move(slot_free_times);
    init.resize(num_slots, start_cycle);
    slots_ = std::priority_queue<Cycle, std::vector<Cycle>,
                                 std::greater<>>(std::greater<>{},
                                                 std::move(init));
}

std::uint32_t
SchedulerModel::effectiveSlots(const GpuConfig &cfg,
                               std::uint32_t waves_per_wg,
                               std::uint32_t lds_bytes)
{
    std::uint32_t wg_cap = cfg.workgroupsPerCu;
    if (lds_bytes > 0)
        wg_cap = std::min(wg_cap, cfg.ldsBytesPerCu / lds_bytes);
    std::uint32_t per_cu = std::min(kSimdsPerCu * kWavesPerSimd,
                                    wg_cap * waves_per_wg);
    return per_cu * cfg.numCus;
}

Cycle
SchedulerModel::scheduleWarp(Cycle duration)
{
    Cycle free_at = slots_.top();
    slots_.pop();
    Cycle finish = free_at + kDispatchLatency + duration;
    slots_.push(finish);
    if (finish > end_)
        end_ = finish;
    ++count_;
    return finish;
}

} // namespace photon::timing
