#include "sim/rng.hh"

#include "sim/hash.hh"
#include "sim/logging.hh"

namespace t3dsim
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : _state)
        word = hash::splitMix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
    const std::uint64_t t = _state[1] << 17;

    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl(_state[3], 45);

    return result;
}

Rng::Bound::Bound(std::uint64_t bound)
    : value(bound)
{
    T3D_ASSERT(bound > 0, "nextBounded needs a positive bound");
    threshold = -bound % bound;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    return nextBounded(Bound(bound));
}

std::uint64_t
Rng::nextBounded(const Bound &bound)
{
    // Rejection sampling to avoid modulo bias.
    for (;;) {
        std::uint64_t r = next();
        if (r >= bound.threshold)
            return r % bound.value;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace t3dsim
