/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**,
 * seeded through SplitMix64). Used by workload generators so every
 * experiment is exactly reproducible from its seed.
 */

#ifndef T3DSIM_SIM_RNG_HH
#define T3DSIM_SIM_RNG_HH

#include <cstdint>

namespace t3dsim
{

/** xoshiro256** generator with SplitMix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** A nextBounded bound with its rejection threshold worked out
     *  once, for loops that draw many values under one bound. */
    struct Bound
    {
        explicit Bound(std::uint64_t bound);

        std::uint64_t value;
        std::uint64_t threshold;
    };

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** nextBounded(bound.value), drawing the same values. */
    std::uint64_t nextBounded(const Bound &bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability @p p of returning true. */
    bool nextBool(double p);

  private:
    std::uint64_t _state[4];
};

} // namespace t3dsim

#endif // T3DSIM_SIM_RNG_HH
