/**
 * @file
 * 64-bit FNV-1a, the one content hash the repository shares: the
 * daemon's admission fingerprints (serve/fingerprint.hpp), the
 * interval-memo keys (sampling/interval_model.hpp), the artifact
 * store's per-batch checksums (service/artifact_store.hpp) and the
 * simulated memory's chunk hashes (func/memory.hpp). Header-only
 * and dependency-free so every layer can use it without reaching up.
 */

#ifndef PHOTON_SIM_HASH_HPP
#define PHOTON_SIM_HASH_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace photon {

/** 64-bit FNV-1a offset basis (the accumulator seed). */
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
/** 64-bit FNV-1a prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold @p n bytes at @p bytes into @p h (FNV-1a step). */
inline std::uint64_t
fnv1a(std::uint64_t h, const void *bytes, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Fold a string (length-prefixed, so "ab"+"c" != "a"+"bc"). */
inline std::uint64_t
fnv1aString(std::uint64_t h, std::string_view s)
{
    std::uint64_t len = s.size();
    h = fnv1a(h, &len, sizeof(len));
    return fnv1a(h, s.data(), s.size());
}

} // namespace photon

#endif // PHOTON_SIM_HASH_HPP
