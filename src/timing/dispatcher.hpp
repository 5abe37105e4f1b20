/**
 * @file
 * Workgroup dispatcher: assigns pending workgroups to compute units with
 * free capacity, round-robin, in workgroup-id order (MGPUSim's default
 * scheduling policy).
 */

#ifndef PHOTON_TIMING_DISPATCHER_HPP
#define PHOTON_TIMING_DISPATCHER_HPP

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "timing/cu.hpp"

namespace photon::timing {

/** Round-robin workgroup dispatcher over a CU array. */
class Dispatcher
{
  public:
    explicit Dispatcher(std::vector<ComputeUnit> &cus) : cus_(cus) {}

    /** Reset for a kernel with @p numWorkgroups workgroups. */
    void
    startKernel(std::uint32_t numWorkgroups)
    {
        numWgs_ = numWorkgroups;
        nextWg_ = 0;
        rr_ = 0;
        retry_ = true;
    }

    /** Stop issuing new workgroups (sampling switch / drain). */
    void
    halt()
    {
        halted_ = true;
    }

    void
    resume()
    {
        halted_ = false;
        retry_ = true;
    }

    /** CU capacity was freed (a wavefront retired): a previously failed
     *  dispatch attempt may now succeed. */
    void
    notifyCapacityFreed()
    {
        retry_ = true;
    }

    /** True when a tryDispatch call could place something: there is
     *  pending work and capacity may have changed since the last
     *  unsuccessful attempt. */
    bool
    wantsDispatch() const
    {
        return retry_ && !halted_ && nextWg_ < numWgs_;
    }

    /**
     * Place as many pending workgroups as capacity allows. Clears the
     * retry flag: with no capacity change a repeat call would be a pure
     * no-op scan, so callers may gate on wantsDispatch(). @p force
     * rescans regardless (the seed loop's per-cycle behaviour).
     * Placed CU ids are appended to @p placed when given.
     */
    void
    tryDispatch(Cycle now, std::vector<std::uint32_t> *placed = nullptr,
                bool force = false)
    {
        if (halted_)
            return;
        if (!retry_ && !force)
            return;
        retry_ = false;
        while (nextWg_ < numWgs_) {
            bool any = false;
            for (std::size_t i = 0; i < cus_.size(); ++i) {
                std::size_t cu = (rr_ + i) % cus_.size();
                if (cus_[cu].canAcceptWorkgroup()) {
                    cus_[cu].placeWorkgroup(nextWg_++, now);
                    rr_ = (cu + 1) % cus_.size();
                    if (placed)
                        placed->push_back(
                            static_cast<std::uint32_t>(cu));
                    any = true;
                    break;
                }
            }
            if (!any)
                return;
        }
    }

    bool allDispatched() const { return nextWg_ >= numWgs_; }
    std::uint32_t nextWorkgroup() const { return nextWg_; }

  private:
    std::vector<ComputeUnit> &cus_;
    std::uint32_t numWgs_ = 0;
    std::uint32_t nextWg_ = 0;
    std::size_t rr_ = 0;
    bool halted_ = false;
    bool retry_ = true;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_DISPATCHER_HPP
