/** @file Tests for the simulated global-memory arena. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "func/memory.hpp"

using photon::func::GlobalMemory;

TEST(Memory, AllocationsAreDisjointAndAligned)
{
    GlobalMemory mem(1 << 20);
    auto a = mem.allocate(100);
    auto b = mem.allocate(100);
    EXPECT_NE(a, 0u); // address 0 reserved as null
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
}

TEST(Memory, CustomAlignmentHonoured)
{
    GlobalMemory mem(1 << 20);
    mem.allocate(3);
    auto a = mem.allocate(16, 4096);
    EXPECT_EQ(a % 4096, 0u);
}

TEST(Memory, ReadBackWhatWasWritten)
{
    GlobalMemory mem(1 << 20);
    auto a = mem.allocate(64);
    mem.write32(a, 0xdeadbeef);
    mem.write32(a + 4, 42);
    EXPECT_EQ(mem.read32(a), 0xdeadbeefu);
    EXPECT_EQ(mem.read32(a + 4), 42u);
}

TEST(Memory, BlockCopyRoundTrip)
{
    GlobalMemory mem(1 << 20);
    auto a = mem.allocate(256);
    std::vector<std::uint8_t> src(256);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7);
    mem.writeBlock(a, src.data(), src.size());
    std::vector<std::uint8_t> dst(256);
    mem.readBlock(a, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST(Memory, AllocatedTracksBrk)
{
    GlobalMemory mem(1 << 20);
    auto before = mem.allocated();
    mem.allocate(1000);
    EXPECT_GE(mem.allocated(), before + 1000);
}

TEST(MemoryDeath, ExhaustionIsFatal)
{
    GlobalMemory mem(4096);
    EXPECT_EXIT(mem.allocate(1 << 20),
                ::testing::ExitedWithCode(1), "exhausted");
}

TEST(MemoryDeath, NullAccessPanics)
{
    GlobalMemory mem(4096);
    EXPECT_DEATH(mem.read32(0), "out of bounds");
}

TEST(MemoryDeath, OutOfRangePanics)
{
    GlobalMemory mem(4096);
    EXPECT_DEATH(mem.write32(1 << 20, 1), "out of bounds");
}

// ----- The incremental fingerprint (DESIGN.md §15) -----

namespace {

using photon::Addr;

constexpr std::uint64_t kChunk = GlobalMemory::kChunkBytes;

/** The documented fingerprint, computed from scratch on a shadow image
 *  with no caching: word-wise FNV-1a per chunk of [0, max(brk, hwm)),
 *  each keyed by its index through fmix64 and summed, then brk, the
 *  range end and the sum folded with FNV-1a. */
std::uint64_t
oracleHash(const std::vector<std::uint8_t> &image, Addr brk, Addr hwm)
{
    const std::uint64_t basis = 0xcbf29ce484222325ull; // FNV-1a
    const std::uint64_t prime = 0x100000001b3ull;
    const Addr end = std::max(brk, hwm);
    std::uint64_t sum = 0;
    for (std::uint64_t c = 0; c * kChunk < end; ++c) {
        const Addr lo = c * kChunk;
        const Addr hi = std::min(lo + kChunk, end);
        std::uint64_t h = basis;
        Addr i = lo;
        for (; i + 8 <= hi; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, image.data() + i, 8);
            h = (h ^ w) * prime;
        }
        for (; i < hi; ++i)
            h = (h ^ image[i]) * prime;
        h ^= c * 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdull;
        h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ull;
        sum += h ^ (h >> 33);
    }
    std::uint64_t h = basis;
    for (std::uint64_t v : {brk, end, sum})
        h = (h ^ v) * prime;
    return h;
}

/** A GlobalMemory driven in lockstep with a shadow image, so any state
 *  can be checked against oracleHash(). */
struct Shadowed
{
    explicit Shadowed(std::uint64_t capacity)
        : mem(capacity), image(capacity, 0)
    {}

    Addr
    allocate(std::uint64_t bytes, std::uint64_t align)
    {
        return mem.allocate(bytes, align);
    }

    void
    write32(Addr addr, std::uint32_t v)
    {
        mem.write32(addr, v);
        std::memcpy(image.data() + addr, &v, 4);
        hwm = std::max(hwm, addr + 4);
    }

    void
    writeBlock(Addr addr, const std::vector<std::uint8_t> &src)
    {
        mem.writeBlock(addr, src.data(), src.size());
        std::copy(src.begin(), src.end(), image.begin() + addr);
        if (!src.empty())
            hwm = std::max(hwm, addr + src.size());
    }

    std::uint64_t oracle() const
    {
        return oracleHash(image, mem.allocated(), hwm);
    }

    GlobalMemory mem;
    std::vector<std::uint8_t> image;
    Addr hwm = 0;
};

std::vector<std::uint8_t>
randomBytes(std::mt19937_64 &rng, std::uint64_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::uint8_t &b : v)
        b = static_cast<std::uint8_t>(rng());
    return v;
}

} // namespace

TEST(MemoryFingerprint, RandomInterleavingsMatchFromScratchOracle)
{
    const std::uint64_t capacity = 64 * kChunk;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        Shadowed s(capacity);
        std::uint64_t checks = 0;
        for (int op = 0; op < 600; ++op) {
            const Addr brk = s.mem.allocated();
            // Stores mostly land in [1, brk); now and then past it.
            const Addr limit =
                rng() % 8 == 0 ? std::min(capacity, brk + 2 * kChunk) : brk;
            switch (rng() % 6) {
              case 0: {
                const std::uint64_t align =
                    std::uint64_t{4} << (rng() % 11); // 4 .. 4096
                const std::uint64_t bytes = rng() % (3 * kChunk);
                if ((brk + align) / align * align + bytes <= capacity / 2)
                    s.allocate(bytes, align);
                break;
              }
              case 1:
              case 2:
                if (limit > 5)
                    s.write32(1 + rng() % (limit - 4),
                              static_cast<std::uint32_t>(rng()));
                break;
              case 3:
                if (limit > 1) {
                    const Addr at = 1 + rng() % (limit - 1);
                    const std::uint64_t n =
                        rng() % std::min<std::uint64_t>(limit - at,
                                                        2 * kChunk + 1);
                    s.writeBlock(at, randomBytes(rng, n));
                }
                break;
              default:
                ASSERT_EQ(s.mem.contentHash(), s.oracle())
                    << "seed " << seed << " op " << op;
                ++checks;
                break;
            }
        }
        EXPECT_EQ(s.mem.contentHash(), s.oracle()) << "seed " << seed;
        EXPECT_GT(checks, 100u);
    }
}

TEST(MemoryFingerprint, EqualLayoutAndBytesHashEquallyWhateverTheHistory)
{
    std::mt19937_64 rng(7);
    const std::vector<std::uint8_t> final_bytes = randomBytes(rng, 5 * kChunk);
    const std::vector<std::uint8_t> noise = randomBytes(rng, 5 * kChunk);

    // Written once, never hashed until the end.
    GlobalMemory direct(1 << 20);
    const Addr a = direct.allocate(5 * kChunk + 300);
    direct.writeBlock(a, final_bytes.data(), final_bytes.size());

    // Written over noise a word at a time, hashed along the way.
    GlobalMemory churned(1 << 20);
    ASSERT_EQ(churned.allocate(5 * kChunk + 300), a);
    churned.contentHash();
    churned.writeBlock(a, noise.data(), noise.size());
    churned.contentHash();
    for (std::uint64_t i = 0; i < final_bytes.size(); i += 4) {
        std::uint32_t w;
        std::memcpy(&w, final_bytes.data() + i, 4);
        churned.write32(a + i, w);
        if (i % 1000 == 0)
            churned.contentHash();
    }
    EXPECT_EQ(churned.contentHash(), direct.contentHash());

    // Write then restore.
    const std::uint64_t before = direct.contentHash();
    const std::uint32_t old = direct.read32(a + 2 * kChunk);
    direct.write32(a + 2 * kChunk, old ^ 1u);
    EXPECT_NE(direct.contentHash(), before);
    direct.write32(a + 2 * kChunk, old);
    EXPECT_EQ(direct.contentHash(), before);
}

TEST(MemoryFingerprint, OneByteChangeAnywhereChangesTheHash)
{
    Shadowed s(1 << 20);
    // brk ends 100 bytes into chunk 3: a partial tail chunk.
    s.allocate(3 * kChunk + 100 - s.mem.allocated(), 1);
    ASSERT_EQ(s.mem.allocated(), 3 * kChunk + 100);
    std::mt19937_64 rng(3);
    s.writeBlock(1, randomBytes(rng, s.mem.allocated() - 1));
    const std::uint64_t base = s.mem.contentHash();
    ASSERT_EQ(base, s.oracle());

    std::vector<Addr> positions = {1, 7, 8, s.mem.allocated() - 1,
                                   3 * kChunk};
    for (std::uint64_t c = 1; c <= 3; ++c)
        for (Addr p : {c * kChunk - 1, c * kChunk, c * kChunk + 1})
            positions.push_back(p);
    for (Addr p : positions) {
        const std::uint8_t old = s.image[p];
        s.writeBlock(p, {static_cast<std::uint8_t>(old ^ 0x80)});
        EXPECT_NE(s.mem.contentHash(), base) << "byte " << p;
        EXPECT_EQ(s.mem.contentHash(), s.oracle()) << "byte " << p;
        s.writeBlock(p, {old});
        EXPECT_EQ(s.mem.contentHash(), base) << "byte " << p;
    }
}

TEST(MemoryFingerprint, BrkChangeAloneChangesTheHash)
{
    GlobalMemory mem(1 << 20);
    mem.allocate(2 * kChunk);
    const std::uint64_t h0 = mem.contentHash();
    mem.allocate(1, 1); // one more zero byte
    const std::uint64_t h1 = mem.contentHash();
    EXPECT_NE(h1, h0);
    mem.allocate(kChunk - 1, 1); // out to the next chunk edge
    EXPECT_NE(mem.contentHash(), h1);

    // With a store past brk the hashed range ends at that store, so
    // moving brk inside it changes only the brk term.
    GlobalMemory past(1 << 20);
    past.allocate(kChunk);
    past.write32(3 * kChunk, 5);
    const std::uint64_t p0 = past.contentHash();
    past.allocate(8, 1);
    EXPECT_NE(past.contentHash(), p0);
}

TEST(MemoryFingerprint, StorePastBrkChangesTheHash)
{
    Shadowed s(1 << 20);
    s.allocate(kChunk + 10, 64);
    const Addr brk = s.mem.allocated();
    const std::uint64_t h0 = s.mem.contentHash();
    s.write32(brk + 100, 0x1234); // in bounds, past every allocation
    const std::uint64_t h1 = s.mem.contentHash();
    EXPECT_NE(h1, h0);
    EXPECT_EQ(h1, s.oracle());
    s.write32(brk + 100, 0x4321); // its value is covered, not just its place
    EXPECT_NE(s.mem.contentHash(), h1);
    EXPECT_EQ(s.mem.contentHash(), s.oracle());
}

TEST(MemoryFingerprint, RehashesOnlyChunksStoredToSinceTheLastCall)
{
    GlobalMemory mem(1 << 23);
    const Addr a = mem.allocate(200 * kChunk, kChunk);
    std::vector<std::uint8_t> ones(200 * kChunk, 1);
    mem.writeBlock(a, ones.data(), ones.size());
    mem.contentHash();
    const std::uint64_t after_first = mem.fingerprintBytes();
    EXPECT_GE(after_first, 200 * kChunk);

    mem.contentHash(); // nothing changed: cached, no bytes
    EXPECT_EQ(mem.fingerprintBytes(), after_first);

    mem.write32(a + 17 * kChunk + 40, 9);
    mem.write32(a + 17 * kChunk + 80, 9); // same chunk
    mem.contentHash();
    EXPECT_EQ(mem.fingerprintBytes() - after_first, kChunk);

    // A big allocation that nothing stores to costs at most its
    // partial tail chunk and the old one.
    const std::uint64_t before_alloc = mem.fingerprintBytes();
    mem.allocate(1000 * kChunk + 5, 1);
    mem.contentHash();
    EXPECT_LE(mem.fingerprintBytes() - before_alloc, 2 * kChunk);
}
