/**
 * @file
 * Simulated global memory: a flat byte arena with a bump allocator.
 * Address 0 is reserved (never allocated) so that 0 can serve as a null
 * pointer in kernels.
 */

#ifndef PHOTON_FUNC_MEMORY_HPP
#define PHOTON_FUNC_MEMORY_HPP

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

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
    }

    /** Bulk host-side copy into simulated memory. */
    void
    writeBlock(Addr addr, const void *src, std::uint64_t bytes)
    {
        boundsCheck(addr, bytes);
        std::memcpy(data_.get() + addr, src, bytes);
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

    /** FNV-1a over the allocated prefix [0, brk_), word-wise, plus the
     *  break itself: an input fingerprint for the trace cache. Two
     *  memories hash equally iff their allocation layout and every
     *  allocated byte match. */
    std::uint64_t
    contentHash() const
    {
        std::uint64_t h = 1469598103934665603ull;
        h ^= brk_;
        h *= 1099511628211ull;
        const std::uint8_t *p = data_.get();
        std::uint64_t i = 0;
        for (; i + 8 <= brk_; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, p + i, 8);
            h ^= w;
            h *= 1099511628211ull;
        }
        for (; i < brk_; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
        return h;
    }

  private:
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
};

} // namespace photon::func

#endif // PHOTON_FUNC_MEMORY_HPP
