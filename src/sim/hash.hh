/**
 * @file
 * The two host-side hash primitives the simulator uses everywhere:
 * the SplitMix64 generator/finalizer (seed expansion, regenerable
 * per-element values) and FNV-1a (checksums, content hashes, finish
 * digests). One definition, so every digest in the tests, benches
 * and service responses is the same function.
 */

#ifndef T3DSIM_SIM_HASH_HH
#define T3DSIM_SIM_HASH_HH

#include <cstddef>
#include <cstdint>

namespace t3dsim::hash
{

/** SplitMix64 state increment (2^64 / golden ratio). */
inline constexpr std::uint64_t splitMixGamma = 0x9e3779b97f4a7c15ull;

/** SplitMix64 finalizer: a bijective avalanche mix of @p z. */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One SplitMix64 step: advance @p state and return its mix. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += splitMixGamma;
    return mix64(state);
}

/** FNV-1a 64-bit offset basis and prime. */
inline constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

/** Fold one value (a byte, or a whole word) into FNV-1a state @p h. */
constexpr std::uint64_t
fnv1aStep(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * fnvPrime;
}

/** FNV-1a over @p len bytes, continuing from @p h. */
inline std::uint64_t
fnv1aBytes(const void *data, std::size_t len, std::uint64_t h = fnvOffset)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i)
        h = fnv1aStep(h, p[i]);
    return h;
}

/** Word-wise FNV-1a: each element of @p xs is folded in whole (the
 *  digest of per-PE finish-time vectors). */
template <typename Range>
std::uint64_t
fnv1aWords(const Range &xs, std::uint64_t h = fnvOffset)
{
    for (const auto x : xs)
        h = fnv1aStep(h, static_cast<std::uint64_t>(x));
    return h;
}

} // namespace t3dsim::hash

#endif // T3DSIM_SIM_HASH_HH
