/**
 * @file
 * Unit tests for the Alpha byte-manipulation instruction helpers.
 */

#include <gtest/gtest.h>

#include "alpha/byte_ops.hh"

namespace
{

using namespace t3dsim::alpha;

constexpr std::uint64_t word = 0x8877665544332211ull;

TEST(ByteOps, Extbl)
{
    EXPECT_EQ(extbl(word, 0), 0x11u);
    EXPECT_EQ(extbl(word, 3), 0x44u);
    EXPECT_EQ(extbl(word, 7), 0x88u);
    EXPECT_EQ(extbl(word, 8), 0x11u) << "index wraps mod 8";
}

TEST(ByteOps, Extwl)
{
    EXPECT_EQ(extwl(word, 0), 0x2211u);
    EXPECT_EQ(extwl(word, 2), 0x4433u);
    EXPECT_EQ(extwl(word, 6), 0x8877u);
}

TEST(ByteOps, Insbl)
{
    EXPECT_EQ(insbl(0xab, 0), 0xabull);
    EXPECT_EQ(insbl(0xab, 5), 0xab0000000000ull);
    EXPECT_EQ(insbl(0x1234, 0), 0x34ull) << "only the low byte";
}

TEST(ByteOps, Mskbl)
{
    EXPECT_EQ(mskbl(word, 0), 0x8877665544332200ull);
    EXPECT_EQ(mskbl(word, 7), 0x0077665544332211ull);
}

TEST(ByteOps, Zap)
{
    EXPECT_EQ(zap(word, 0x01), 0x8877665544332200ull);
    EXPECT_EQ(zap(word, 0xff), 0ull);
    EXPECT_EQ(zap(word, 0x00), word);
}

TEST(ByteOps, Zapnot)
{
    EXPECT_EQ(zapnot(word, 0xff), word);
    EXPECT_EQ(zapnot(word, 0x01), 0x11ull);
    EXPECT_EQ(zapnot(word, 0x0f), 0x44332211ull);
}

TEST(ByteOps, MergeByte)
{
    EXPECT_EQ(mergeByte(word, 0, 0xaa), 0x88776655443322aaull);
    EXPECT_EQ(mergeByte(word, 7, 0xaa), 0xaa77665544332211ull);
}

/** Property: merge then extract returns the merged byte. */
TEST(ByteOps, MergeExtractRoundTrip)
{
    for (unsigned idx = 0; idx < 8; ++idx) {
        for (unsigned v = 0; v < 256; v += 17) {
            auto merged =
                mergeByte(word, idx, static_cast<std::uint8_t>(v));
            EXPECT_EQ(extbl(merged, idx), v);
            // Other bytes untouched.
            for (unsigned other = 0; other < 8; ++other) {
                if (other != idx) {
                    EXPECT_EQ(extbl(merged, other), extbl(word, other));
                }
            }
        }
    }
}

} // namespace
