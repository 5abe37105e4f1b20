/**
 * @file
 * Simulated global memory: a flat byte arena with a bump allocator.
 * Address 0 is reserved (never allocated) so that 0 can serve as a null
 * pointer in kernels.
 */

#ifndef PHOTON_FUNC_MEMORY_HPP
#define PHOTON_FUNC_MEMORY_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/hash.hpp"
#include "sim/log.hpp"
#include "sim/types.hpp"

namespace photon::func {

/**
 * Flat simulated DRAM. Buffers are allocated sequentially; there is no
 * free() — a Platform owns one GlobalMemory per simulation and the whole
 * arena is released together.
 *
 * The backing store is calloc'd, not value-initialized: the OS hands
 * out zero pages lazily on first touch, so constructing a Platform
 * costs microseconds instead of a ~100ms 512MB memset. Semantics are
 * unchanged (untouched memory still reads as zero) — this fixed cost
 * used to dominate short campaign jobs and masked the emulate-vs-replay
 * delta of functional-trace reuse.
 *
 * write32 and writeBlock are the only mutators, and contentHash()
 * depends on it: they mark what they store. A writable view of the
 * arena would have to do the same.
 */
class GlobalMemory
{
  public:
    /** @param capacity_bytes backing-store size actually reserved. */
    explicit GlobalMemory(std::uint64_t capacity_bytes = 512ull << 20)
        : data_(static_cast<std::uint8_t *>(
              std::calloc(capacity_bytes, 1))),
          capacity_(capacity_bytes), brk_(kLineBytes)
    {
        if (!data_)
            fatal("cannot reserve ", capacity_bytes,
                  " bytes of simulated global memory");
    }

    /** Allocate @p bytes aligned to @p align; returns the base address. */
    Addr
    allocate(std::uint64_t bytes, std::uint64_t align = kLineBytes)
    {
        Addr base = (brk_ + align - 1) / align * align;
        if (base + bytes > capacity_)
            fatal("simulated global memory exhausted (need ",
                  base + bytes, " bytes, have ", capacity_, ")");
        brk_ = base + bytes;
        stale_ = true;
        return base;
    }

    /** Bytes allocated so far. */
    std::uint64_t allocated() const { return brk_; }

    std::uint32_t
    read32(Addr addr) const
    {
        boundsCheck(addr, 4);
        std::uint32_t v;
        std::memcpy(&v, data_.get() + addr, 4);
        return v;
    }

    void
    write32(Addr addr, std::uint32_t value)
    {
        boundsCheck(addr, 4);
        std::memcpy(data_.get() + addr, &value, 4);
        noteWrite(addr, 4);
    }

    /** Bulk host-side copy into simulated memory. */
    void
    writeBlock(Addr addr, const void *src, std::uint64_t bytes)
    {
        boundsCheck(addr, bytes);
        if (bytes == 0)
            return; // src may be null, and nothing is stored
        std::memcpy(data_.get() + addr, src, bytes);
        noteWrite(addr, bytes);
    }

    /** Bulk host-side copy out of simulated memory. */
    void
    readBlock(Addr addr, void *dst, std::uint64_t bytes) const
    {
        boundsCheck(addr, bytes);
        std::memcpy(dst, data_.get() + addr, bytes);
    }

    /** Bounds-checked raw view of [addr, addr+bytes): gather/scatter
     *  loops validate the enclosing lane-address range once and then
     *  index relative to the returned pointer, instead of paying a
     *  bounds check per lane. */
    const std::uint8_t *
    span(Addr addr, std::uint64_t bytes) const
    {
        boundsCheck(addr, bytes);
        return data_.get() + addr;
    }

    std::uint64_t capacity() const { return capacity_; }

    /**
     * Input fingerprint for the trace cache (DESIGN.md §15). Two
     * memories hash equally iff their allocation layout (brk_) and
     * every byte of [0, max(brk_, hwm)) match, where hwm is the end of
     * the highest store so far: a store past brk_ is state a later
     * kernel can read, so it is covered too.
     *
     * The range is cut into kChunkBytes chunks, each hashed with
     * word-wise FNV-1a (the last one up to the range end only). Chunk
     * c adds mixChunk(hash, c) to a 64-bit sum, and the fingerprint
     * folds brk_, the range end and that sum. write32 and writeBlock
     * mark the chunks they touch dirty, so a call rehashes only the
     * chunks stored to since the previous one, plus a tail chunk the
     * range end moved through; chunks that were never stored to hold
     * zeros and take a precomputed hash. With no store or allocation
     * since the previous call, the cached value is returned as is.
     */
    std::uint64_t
    contentHash() const
    {
        if (!stale_)
            return fingerprint_;
        const Addr end = std::max(brk_, hwm_);
        const std::uint64_t chunks = (end + kChunkBytes - 1) / kChunkBytes;
        if (end != hashedEnd_) {
            // A partial tail chunk was hashed up to the old end only;
            // fresh chunks in between are zero until stored to.
            if (hashedEnd_ % kChunkBytes)
                markChunk(hashedEnd_ / kChunkBytes);
            if (end % kChunkBytes)
                markChunk(chunks - 1);
            for (std::uint64_t c = chunkHash_.size(); c < chunks; ++c) {
                chunkHash_.push_back(kZeroChunkHash);
                chunkSum_ += mixChunk(kZeroChunkHash, c);
            }
            hashedEnd_ = end;
        }
        for (std::uint64_t w = 0; w < dirty_.size(); ++w) {
            for (std::uint64_t bits = dirty_[w]; bits; bits &= bits - 1) {
                const std::uint64_t c = w * 64 + std::countr_zero(bits);
                const Addr lo = c * kChunkBytes;
                const std::uint64_t len = std::min(kChunkBytes, end - lo);
                const std::uint64_t h = hashBytes(data_.get() + lo, len);
                chunkSum_ += mixChunk(h, c) - mixChunk(chunkHash_[c], c);
                chunkHash_[c] = h;
                hashedBytes_ += len;
            }
            dirty_[w] = 0;
        }
        std::uint64_t h = kFnvBasis;
        for (std::uint64_t v : {brk_, end, chunkSum_})
            h = (h ^ v) * kFnvPrime;
        fingerprint_ = h;
        stale_ = false;
        return h;
    }

    /** Bytes contentHash() has rehashed so far: a deterministic work
     *  counter (exported as platform.fingerprint_bytes). */
    std::uint64_t fingerprintBytes() const { return hashedBytes_; }

    /** Fingerprint chunk size. */
    static constexpr std::uint64_t kChunkBytes = 4096;

  private:
    /** Word-wise FNV-1a of @p len bytes at @p p: one chunk's hash. */
    static std::uint64_t
    hashBytes(const std::uint8_t *p, std::uint64_t len)
    {
        std::uint64_t h = kFnvBasis;
        std::uint64_t i = 0;
        for (; i + 8 <= len; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, p + i, 8);
            h = (h ^ w) * kFnvPrime;
        }
        return fnv1a(h, p + i, len - i);
    }

    /** Chunk @p c's term in the fingerprint sum: a bijection of its
     *  hash @p h for each c (murmur3's fmix64 of h keyed by c), so a
     *  change to one chunk always changes the sum. */
    static std::uint64_t
    mixChunk(std::uint64_t h, std::uint64_t c)
    {
        h ^= c * 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdull;
        h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ull;
        return h ^ (h >> 33);
    }

    /** hashBytes() of a chunk of zeros. */
    static constexpr std::uint64_t kZeroChunkHash = [] {
        std::uint64_t h = kFnvBasis;
        for (std::uint64_t i = 0; i < kChunkBytes / 8; ++i)
            h *= kFnvPrime;
        return h;
    }();

    /** The single write choke point: every store of @p bytes > 0
     *  marks its chunks. */
    void
    noteWrite(Addr addr, std::uint64_t bytes)
    {
        const Addr end = addr + bytes;
        hwm_ = std::max(hwm_, end);
        for (std::uint64_t c = addr / kChunkBytes; c * kChunkBytes < end;
             ++c)
            markChunk(c);
        stale_ = true;
    }

    void
    markChunk(std::uint64_t c) const
    {
        if (c / 64 >= dirty_.size())
            dirty_.resize(c / 64 + 1);
        dirty_[c / 64] |= std::uint64_t{1} << (c % 64);
    }

    void
    boundsCheck(Addr addr, std::uint64_t bytes) const
    {
        if (addr + bytes > capacity_ || addr == 0)
            panic("global memory access out of bounds: addr=", addr,
                  " size=", bytes);
    }

    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };
    std::unique_ptr<std::uint8_t[], FreeDeleter> data_;
    std::uint64_t capacity_;
    Addr brk_;
    /** End of the highest store so far. */
    Addr hwm_ = 0;

    // Fingerprint state, sized by max(brk_, hwm_), never by capacity.
    mutable std::vector<std::uint64_t> dirty_;     ///< bit per chunk
    mutable std::vector<std::uint64_t> chunkHash_; ///< per chunk
    mutable std::uint64_t chunkSum_ = 0;  ///< sum of mixChunk terms
    mutable Addr hashedEnd_ = 0;          ///< range end last hashed
    mutable std::uint64_t fingerprint_ = 0;
    mutable std::uint64_t hashedBytes_ = 0;
    /** A store or allocation since the last contentHash(). */
    mutable bool stale_ = true;
};

} // namespace photon::func

#endif // PHOTON_FUNC_MEMORY_HPP
