/** @file Tests for the full memory hierarchy (L1s, L2, DRAM, MSHRs). */

#include <gtest/gtest.h>

#include "sim/stats.hpp"
#include "timing/memsys.hpp"

using namespace photon;
using timing::MemorySystem;

namespace {

GpuConfig
tiny()
{
    return GpuConfig::testTiny();
}

} // namespace

TEST(Memsys, ColdVectorAccessSlowerThanWarm)
{
    GpuConfig cfg = tiny();
    MemorySystem m(cfg);
    Cycle cold = m.vectorAccess(0, 1234, false, 0);
    Cycle warm = m.vectorAccess(0, 1234, false, cold);
    EXPECT_GT(cold, cfg.l1v.hitLatency);
    EXPECT_EQ(warm - cold, cfg.l1v.hitLatency);
}

TEST(Memsys, L1HitDoesNotTouchDram)
{
    GpuConfig cfg = tiny();
    MemorySystem m(cfg);
    m.vectorAccess(0, 7, false, 0);
    std::uint64_t dram_after_miss = m.dram().accesses();
    m.vectorAccess(0, 7, false, 1000);
    EXPECT_EQ(m.dram().accesses(), dram_after_miss);
}

TEST(Memsys, L2SharedAcrossCus)
{
    GpuConfig cfg = tiny();
    MemorySystem m(cfg);
    m.vectorAccess(0, 99, false, 0); // CU0 pulls line into L2
    std::uint64_t dram = m.dram().accesses();
    Cycle t = m.vectorAccess(1, 99, false, 5000); // CU1 misses L1, hits L2
    EXPECT_EQ(m.dram().accesses(), dram);
    EXPECT_LE(t, 5000 + cfg.l1v.hitLatency + cfg.l2.hitLatency + 10);
}

TEST(Memsys, PerCuL1sArePrivate)
{
    GpuConfig cfg = tiny();
    MemorySystem m(cfg);
    m.vectorAccess(0, 42, false, 0);
    EXPECT_TRUE(m.l1v(0).contains(42));
    EXPECT_FALSE(m.l1v(1).contains(42));
}

TEST(Memsys, MshrsBoundOutstandingMisses)
{
    GpuConfig cfg = tiny();
    cfg.mshrsPerCu = 2;
    MemorySystem m(cfg);
    // Three simultaneous misses on one CU: the third must wait for an
    // MSHR to free (the fill time of an earlier miss).
    Cycle t1 = m.vectorAccess(0, 1000, false, 0);
    Cycle t2 = m.vectorAccess(0, 2000, false, 0);
    Cycle t3 = m.vectorAccess(0, 3000, false, 0);
    EXPECT_GE(t3, std::min(t1, t2));
    // With ample MSHRs the third miss is not delayed by fills.
    GpuConfig cfg2 = tiny();
    cfg2.mshrsPerCu = 64;
    MemorySystem m2(cfg2);
    m2.vectorAccess(0, 1000, false, 0);
    m2.vectorAccess(0, 2000, false, 0);
    Cycle u3 = m2.vectorAccess(0, 3000, false, 0);
    EXPECT_LT(u3, t3);
}

TEST(Memsys, ScalarPathUsesSharedL1k)
{
    GpuConfig cfg = tiny();
    MemorySystem m(cfg);
    Cycle cold = m.scalarAccess(0, 77, 0);
    // CU1 shares CU0's L1K (same group of 4): second access hits.
    Cycle warm = m.scalarAccess(1, 77, cold);
    EXPECT_EQ(warm - cold, cfg.l1k.hitLatency);
}

TEST(Memsys, InstPathIndependentOfVectorPath)
{
    GpuConfig cfg = tiny();
    MemorySystem m(cfg);
    m.instAccess(0, 123, 0);
    EXPECT_FALSE(m.l1v(0).contains(123));
}

TEST(Memsys, StatsExportCoversHierarchy)
{
    GpuConfig cfg = tiny();
    MemorySystem m(cfg);
    m.vectorAccess(0, 1, false, 0);
    m.vectorAccess(0, 1, false, 100);
    StatRegistry stats;
    m.exportStats(stats);
    EXPECT_EQ(stats.get("mem.l1v.hits"), 1.0);
    EXPECT_EQ(stats.get("mem.l1v.misses"), 1.0);
    EXPECT_GE(stats.get("mem.dram.accesses"), 1.0);
}

TEST(Memsys, MshrRingWrapsAtAnyCount)
{
    // The ring need not be a power of two: three MSHRs serve misses in
    // the order 0, 1, 2, 0, ...
    GpuConfig cfg = tiny();
    cfg.mshrsPerCu = 3;
    MemorySystem m(cfg);
    for (std::uint32_t i = 0; i < 7; ++i) {
        MemorySystem::VmemProbe p = m.vectorProbe(0, 1000 + 64 * i, 0);
        ASSERT_FALSE(p.hit);
        EXPECT_EQ(p.mshrIdx, i % 3);
    }
}

TEST(MemsysDeathTest, RejectsUnusableBankAndMshrCounts)
{
    // Bank selection masks the line id and the MSHR ring wraps at its
    // size, so a zero or non-power-of-two bank count, or an empty MSHR
    // file, must stop construction with a message naming the field.
    auto build = [](GpuConfig cfg) { MemorySystem m(cfg); };
    GpuConfig cfg = tiny();
    cfg.l2Banks = 0;
    EXPECT_DEATH(build(cfg), "l2Banks must be a nonzero power of two");
    cfg.l2Banks = 6;
    EXPECT_DEATH(build(cfg), "l2Banks must be a nonzero power of two");

    cfg = tiny();
    cfg.dram.numBanks = 0;
    EXPECT_DEATH(build(cfg),
                 "dram.numBanks must be a nonzero power of two");
    cfg.dram.numBanks = 12;
    EXPECT_DEATH(build(cfg),
                 "dram.numBanks must be a nonzero power of two");

    cfg = tiny();
    cfg.mshrsPerCu = 0;
    EXPECT_DEATH(build(cfg), "mshrsPerCu must be nonzero");
}
