/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"

namespace
{

using t3dsim::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    // 2^63 + 1 rejects about half the raw draws; a precomputed Bound
    // must draw the same values.
    for (std::uint64_t bound : {17ull, (1ull << 63) + 1}) {
        Rng r(7), s(7);
        const Rng::Bound precomputed(bound);
        for (int i = 0; i < 1000; ++i) {
            auto v = r.nextBounded(bound);
            EXPECT_LT(v, bound);
            EXPECT_EQ(s.nextBounded(precomputed), v);
        }
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng r(11);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[r.nextBounded(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = r.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    // Coarse uniformity check on the mean.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.nextBool(0.0));
        EXPECT_TRUE(r.nextBool(1.0));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng r(9);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

} // namespace
