/**
 * @file
 * Work-stealing task deques: the job-level scheduler shared by the
 * campaign runner (`photon_sim --campaign`) and the photond worker pool.
 *
 * Each worker owns a deque. Tasks are seeded (or submitted) round-robin
 * across the lanes; a worker pops from the front of its own lane and,
 * when that runs dry, steals the back half of the first non-empty
 * victim lane (scanning deterministically from its right neighbour).
 * Owners therefore consume their oldest tasks first while thieves lift
 * away the newest half, so a single long-running task never strands the
 * work queued behind it — the failure mode of a static partition when
 * job costs are skewed (one worker stuck on the big DNN job while the
 * others idle).
 *
 * Determinism: stealing moves tasks between workers but never reorders
 * results — every consumer of this scheduler assembles its report by
 * task index (campaign: `result.jobs[i]`; photond: per-ticket results),
 * and tasks whose relative order matters (the campaign's `ordered`
 * share chains) are enqueued as ONE task that runs its chain
 * sequentially. The schedule affects wall-clock only, never output;
 * test_campaign pins 1-worker == 4-worker result equality.
 *
 * Locking: one mutex per lane, taken for O(1) pushes/pops and O(k)
 * steal transfers. Fine for job granularity (tasks are whole kernel
 * simulations, milliseconds to minutes); this is not an instruction-
 * level Chase-Lev deque and does not try to be.
 */

#ifndef PHOTON_SERVICE_WORK_STEAL_HPP
#define PHOTON_SERVICE_WORK_STEAL_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace photon::service {

/** Scheduler observability: how much rebalancing actually happened. */
struct StealStats
{
    std::uint64_t stealOps = 0;    ///< successful steal transfers
    std::uint64_t stolenTasks = 0; ///< tasks moved by those transfers
};

/** Per-worker task deques with steal-half rebalancing. */
template <typename T>
class WorkStealDeques
{
  public:
    /** @param workers number of lanes (>= 1 enforced) */
    explicit WorkStealDeques(std::size_t workers)
    {
        if (workers == 0)
            workers = 1;
        for (std::size_t i = 0; i < workers; ++i)
            lanes_.emplace_back();
    }

    std::size_t workers() const { return lanes_.size(); }

    /** Enqueue @p item on the next lane round-robin (seeding a batch,
     *  or spreading daemon submissions). */
    void
    push(T item)
    {
        pushTo(rr_.fetch_add(1, std::memory_order_relaxed) %
                   lanes_.size(),
               std::move(item));
    }

    /** Enqueue @p item on worker @p w's lane. */
    void
    pushTo(std::size_t w, T item)
    {
        Lane &lane = lanes_[w % lanes_.size()];
        {
            std::lock_guard<std::mutex> lock(lane.mu);
            lane.q.push_back(std::move(item));
        }
        size_.fetch_add(1, std::memory_order_release);
    }

    /**
     * Dequeue one task for worker @p w: front of its own lane, else
     * the oldest of the back half stolen from the first non-empty
     * victim (deterministic scan from the right neighbour). Returns
     * false when every lane is empty — for a batch with no task
     * spawning, that means the batch is done for this worker.
     */
    bool
    tryPop(std::size_t w, T &out)
    {
        const std::size_t n = lanes_.size();
        w %= n;
        if (popFront(lanes_[w], out))
            return true;
        for (std::size_t k = 1; k < n; ++k) {
            if (stealInto(lanes_[(w + k) % n], lanes_[w], out))
                return true;
        }
        return false;
    }

    /** Tasks currently enqueued (racy by nature; exact when quiesced —
     *  the drain/status predicate). */
    std::size_t
    sizeApprox() const
    {
        return size_.load(std::memory_order_acquire);
    }

    StealStats
    stats() const
    {
        StealStats s;
        s.stealOps = stealOps_.load(std::memory_order_relaxed);
        s.stolenTasks = stolenTasks_.load(std::memory_order_relaxed);
        return s;
    }

  private:
    struct Lane
    {
        std::mutex mu;
        std::deque<T> q;
    };

    bool
    popFront(Lane &lane, T &out)
    {
        std::lock_guard<std::mutex> lock(lane.mu);
        if (lane.q.empty())
            return false;
        out = std::move(lane.q.front());
        lane.q.pop_front();
        size_.fetch_sub(1, std::memory_order_release);
        return true;
    }

    /** Move the back half (at least one) of @p victim onto @p self,
     *  relative order preserved, and pop the oldest stolen task into
     *  @p out. Two workers may steal from each other at once, taking
     *  the same pair of lane locks from opposite sides, so both are
     *  acquired together through std::scoped_lock's deadlock-avoiding
     *  lock; nesting them would form a lock-order cycle. */
    bool
    stealInto(Lane &victim, Lane &self, T &out)
    {
        std::scoped_lock lock(victim.mu, self.mu);
        const std::size_t avail = victim.q.size();
        if (avail == 0)
            return false;
        const std::size_t take = (avail + 1) / 2;
        const std::size_t from = avail - take;

        out = std::move(victim.q[from]);
        for (std::size_t i = from + 1; i < avail; ++i)
            self.q.push_back(std::move(victim.q[i]));
        victim.q.erase(victim.q.begin() +
                           static_cast<std::ptrdiff_t>(from),
                       victim.q.end());
        size_.fetch_sub(1, std::memory_order_release);
        stealOps_.fetch_add(1, std::memory_order_relaxed);
        stolenTasks_.fetch_add(take, std::memory_order_relaxed);
        return true;
    }

    std::deque<Lane> lanes_; ///< stable addresses; never resized
    std::atomic<std::size_t> size_{0};
    std::atomic<std::uint64_t> rr_{0};
    std::atomic<std::uint64_t> stealOps_{0};
    std::atomic<std::uint64_t> stolenTasks_{0};
};

} // namespace photon::service

#endif // PHOTON_SERVICE_WORK_STEAL_HPP
