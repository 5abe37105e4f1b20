/**
 * @file
 * The full GPU memory hierarchy: per-CU L1 vector caches, per-CU-group
 * L1 instruction and scalar caches, banked shared L2, and DRAM
 * (paper Table 1).
 */

#ifndef PHOTON_TIMING_MEMSYS_HPP
#define PHOTON_TIMING_MEMSYS_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "timing/cache.hpp"
#include "timing/dram.hpp"

namespace photon::timing {

/** Number of CUs sharing one L1I / L1K instance (GCN shader arrays). */
inline constexpr std::uint32_t kCusPerL1Group = 4;

/**
 * Owns every cache and the DRAM model; CUs call into it with line
 * addresses and receive data-ready cycles.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const GpuConfig &cfg);

    /** Vector (FLAT) access from CU @p cuId. Returns data-ready cycle. */
    Cycle vectorAccess(std::uint32_t cuId, std::uint64_t lineAddr,
                       bool write, Cycle now);

    /** Result of the CU-private half of a vector access. */
    struct VmemProbe
    {
        bool hit = false;
        Cycle ready = 0;    ///< data-ready cycle (hit path only)
        Cycle missBase = 0; ///< L1 lookup done; L2 path starts here
        std::uint32_t mshrIdx = 0; ///< MSHR reserved for the miss
    };

    /** An L1V miss whose L2/DRAM path has not been walked yet. */
    struct VmemMiss
    {
        std::uint64_t line = 0;
        Cycle missBase = 0;
        std::uint32_t mshrIdx = 0;
    };

    /**
     * CU-private half of a vector access: L1V port + tag lookup (with
     * fill-on-miss) and MSHR ring allocation. On a miss the returned
     * missBase/mshrIdx must be passed to vectorCommitMiss later — in
     * probe order — to walk the shared L2/DRAM path.
     */
    VmemProbe vectorProbe(std::uint32_t cuId, std::uint64_t lineAddr,
                          Cycle now);

    /** Shared half of a missing vector access; returns the fill cycle.
     *  Reads the MSHR next-free time here (not at probe time) so a
     *  same-cycle later miss observes earlier fills, exactly as in the
     *  fused vectorAccess path. */
    Cycle vectorCommitMiss(std::uint32_t cuId, const VmemMiss &miss);

    /** Scalar (s_load) access from CU @p cuId via the L1K path. */
    Cycle scalarAccess(std::uint32_t cuId, std::uint64_t lineAddr,
                       Cycle now);

    /** Instruction-fetch access via the L1I path. */
    Cycle instAccess(std::uint32_t cuId, std::uint64_t lineAddr, Cycle now);

    /** Export hit/miss/queueing counters into @p stats. Exported
     *  counters are user-visible results: feeding them anything
     *  nondeterministic breaks run-to-run reproducibility. */
    void exportStats(StatRegistry &stats) const;

    const SetAssocCache &l1v(std::uint32_t cuId) const
    {
        return l1v_[cuId];
    }
    const Dram &dram() const { return dram_; }

  private:
    /** Shared L2 + DRAM path used by all three L1 kinds on a miss. */
    Cycle l2Access(std::uint64_t lineAddr, Cycle now);

    GpuConfig cfg_;
    std::uint32_t l2BankMask_; ///< l2Banks - 1 (a power of two)
    /** Per-CU MSHR next-free times (ring-allocated). */
    std::vector<std::vector<Cycle>> mshrFree_;
    std::vector<std::uint32_t> mshrPtr_;
    std::vector<SetAssocCache> l1v_; ///< one per CU
    std::vector<SetAssocCache> l1i_; ///< one per CU group
    std::vector<SetAssocCache> l1k_; ///< one per CU group
    std::vector<SetAssocCache> l2_; ///< one per bank
    Dram dram_;
};

} // namespace photon::timing

#endif // PHOTON_TIMING_MEMSYS_HPP
