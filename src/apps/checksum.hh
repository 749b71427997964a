/**
 * @file
 * Output digest shared by the applications: every app reports an
 * FNV-1a checksum of its gathered result so benches and tests can
 * pin bit-identity across variants and counter modes with one 64-bit
 * compare.
 */

#ifndef T3DSIM_APPS_CHECKSUM_HH
#define T3DSIM_APPS_CHECKSUM_HH

#include <cstdint>
#include <vector>

#include "sim/hash.hh"

namespace t3dsim::apps
{

/** FNV-1a over the little-endian bytes of a u64 sequence. */
inline std::uint64_t
fnv1a(const std::vector<std::uint64_t> &xs)
{
    std::uint64_t h = hash::fnvOffset;
    for (std::uint64_t x : xs) {
        for (int b = 0; b < 8; ++b)
            h = hash::fnv1aStep(h, (x >> (8 * b)) & 0xff);
    }
    return h;
}

} // namespace t3dsim::apps

#endif // T3DSIM_APPS_CHECKSUM_HH
