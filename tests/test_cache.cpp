/** @file Tests for the set-associative cache model. */

#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "timing/cache.hpp"

using namespace photon;
using timing::SetAssocCache;

namespace {

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64B lines.
    return CacheConfig{512, 2, 64, 10};
}

/**
 * The timestamp-LRU cache that the move-to-front list replaced, kept
 * verbatim as the differential oracle: each way holds a tag, a
 * last-use stamp and a valid bit, and the victim is the first invalid
 * way, else the least recently used valid one.
 */
class StampLruCache
{
  public:
    explicit StampLruCache(const CacheConfig &cfg)
        : cfg_(cfg), numSets_(cfg.numSets()),
          ways_(std::size_t{numSets_} * cfg.ways)
    {}

    bool
    probe(std::uint64_t lineAddr)
    {
        std::uint32_t set = lineAddr & (numSets_ - 1);
        Way *base = &ways_[std::size_t{set} * cfg_.ways];
        ++useClock_;

        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == lineAddr) {
                way.lastUse = useClock_;
                ++hits_;
                return true;
            }
            bool better = !victim ||
                          (victim->valid &&
                           (!way.valid || way.lastUse < victim->lastUse));
            if (better)
                victim = &way;
        }

        ++misses_;
        victim->valid = true;
        victim->tag = lineAddr;
        victim->lastUse = useClock_;
        return false;
    }

    bool
    contains(std::uint64_t lineAddr) const
    {
        std::uint32_t set = lineAddr & (numSets_ - 1);
        const Way *base = &ways_[std::size_t{set} * cfg_.ways];
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if (base[w].valid && base[w].tag == lineAddr)
                return true;
        }
        return false;
    }

    void
    flush()
    {
        for (Way &w : ways_)
            w.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig cfg_;
    std::uint32_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Seeded line stream mixing a few hot lines, a strided walk, lines
 *  that all fall into one set, and uniform lines over 4x capacity. */
class LineStream
{
  public:
    LineStream(std::uint64_t seed, std::uint32_t sets, std::uint32_t ways)
        : rng_(seed), sets_(sets), ways_(ways)
    {}

    std::uint64_t
    next()
    {
        std::uint64_t capacity = std::uint64_t{sets_} * ways_;
        switch (rng_.nextBelow(4)) {
          case 0: // hot
            return 7 + rng_.nextBelow(8) * 13;
          case 1: // strided
            stride_ += 3;
            return 1000 + stride_ % (8 * capacity);
          case 2: // set-conflicting
            return conflictSet_ + sets_ * rng_.nextBelow(2 * ways_ + 1);
          default: // uniform
            return rng_.nextBelow(4 * capacity);
        }
    }

    /** Lines [0, window) cover every kind the stream emits. */
    std::uint64_t
    window() const
    {
        std::uint64_t capacity = std::uint64_t{sets_} * ways_;
        return 1000 + 8 * capacity;
    }

  private:
    Rng rng_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t stride_ = 0;
    std::uint64_t conflictSet_ = 5;
};

} // namespace

TEST(Cache, MoveToFrontMatchesStampLru)
{
    for (std::uint32_t ways : {1u, 2u, 4u, 16u}) {
        for (std::uint32_t sets : {1u, 4u, 64u, 256u}) {
            CacheConfig cfg{sets * ways * 64, ways, 64, 10};
            for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
                SetAssocCache dut(cfg);
                StampLruCache oracle(cfg);
                LineStream stream(seed, sets, ways);
                auto where = [&] {
                    return ::testing::Message()
                           << ways << " ways x " << sets << " sets, seed "
                           << seed;
                };
                auto sameContents = [&] {
                    for (std::uint64_t l = 0; l < stream.window(); ++l)
                        ASSERT_EQ(dut.contains(l), oracle.contains(l))
                            << where() << ", line " << l;
                };
                for (int phase = 0; phase < 2; ++phase) {
                    for (int i = 0; i < 4000; ++i) {
                        std::uint64_t line = stream.next();
                        ASSERT_EQ(dut.probe(line), oracle.probe(line))
                            << where() << ", probe " << i << " line "
                            << line;
                    }
                    ASSERT_EQ(dut.hits(), oracle.hits()) << where();
                    ASSERT_EQ(dut.misses(), oracle.misses()) << where();
                    ASSERT_NO_FATAL_FAILURE(sameContents());
                    dut.flush();
                    oracle.flush();
                    ASSERT_NO_FATAL_FAILURE(sameContents());
                }
            }
        }
    }
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.probe(100));
    EXPECT_TRUE(c.probe(100));
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, DistinctLinesDistinctEntries)
{
    SetAssocCache c(smallCache());
    c.probe(1);
    c.probe(2);
    EXPECT_TRUE(c.contains(1));
    EXPECT_TRUE(c.contains(2));
}

TEST(Cache, LruEvictionWithinSet)
{
    SetAssocCache c(smallCache()); // 4 sets: lines 0,4,8 share set 0
    c.probe(0);
    c.probe(4);
    c.probe(0);  // 0 is now MRU, 4 is LRU
    c.probe(8);  // evicts 4
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(4));
    EXPECT_TRUE(c.contains(8));
}

TEST(Cache, EvictionPrefersInvalidWays)
{
    SetAssocCache c(smallCache());
    c.probe(0);
    c.probe(4); // second way, no eviction of line 0
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(4));
}

TEST(Cache, FlushInvalidatesEverything)
{
    SetAssocCache c(smallCache());
    c.probe(0);
    c.probe(1);
    c.flush();
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.contains(1));
}

TEST(Cache, ContainsDoesNotAllocate)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.contains(5));
    EXPECT_FALSE(c.contains(5)); // still a miss if probed
    EXPECT_FALSE(c.probe(5));
}

TEST(Cache, PortSerialisesAccesses)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.reservePort(100), 100u);
    EXPECT_EQ(c.reservePort(100), 101u); // one access per cycle
    EXPECT_EQ(c.reservePort(100), 102u);
    EXPECT_EQ(c.reservePort(200), 200u); // idle gap resets
}

TEST(Cache, NoAliasingAcrossLinesSharingASet)
{
    SetAssocCache c(smallCache());
    c.probe(1);
    c.probe(1 + 4 * 1000);
    EXPECT_TRUE(c.contains(1));
    EXPECT_TRUE(c.contains(1 + 4 * 1000));
    EXPECT_FALSE(c.contains(1 + 4 * 2000));
}

/** Parameterised sweep: a cyclic working set that fits never misses
 *  after the first pass; at 2x capacity LRU thrashes to zero hits. */
class CacheSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CacheSweep, CyclicWorkingSetBehaviour)
{
    CacheConfig cfg{GetParam(), 4, 64, 10};
    SetAssocCache c(cfg);
    std::uint32_t lines_capacity = cfg.sizeBytes / cfg.lineBytes;

    for (std::uint32_t pass = 0; pass < 3; ++pass) {
        for (std::uint32_t i = 0; i < lines_capacity; ++i)
            c.probe(i);
    }
    EXPECT_EQ(c.misses(), lines_capacity);

    SetAssocCache d(cfg);
    for (std::uint32_t pass = 0; pass < 2; ++pass) {
        for (std::uint32_t i = 0; i < 2 * lines_capacity; ++i)
            d.probe(i);
    }
    EXPECT_EQ(d.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSweep,
                         ::testing::Values(1024u, 4096u, 16384u, 65536u));
