/**
 * @file
 * Unit tests for the sparse backing storage.
 */

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "mem/storage.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"

namespace
{

using t3dsim::Addr;
using t3dsim::mem::Storage;

TEST(Storage, ZeroFilledByDefault)
{
    Storage s;
    EXPECT_EQ(s.readU8(0), 0u);
    EXPECT_EQ(s.readU64(4096), 0u);
    EXPECT_EQ(s.chunksAllocated(), 0u) << "reads must not materialize";
}

TEST(Storage, ByteRoundTrip)
{
    Storage s;
    s.writeU8(17, 0xab);
    EXPECT_EQ(s.readU8(17), 0xab);
    EXPECT_EQ(s.readU8(16), 0u);
    EXPECT_EQ(s.readU8(18), 0u);
}

TEST(Storage, WordRoundTrips)
{
    Storage s;
    s.writeU32(100, 0xdeadbeef);
    EXPECT_EQ(s.readU32(100), 0xdeadbeefu);
    s.writeU64(200, 0x0123456789abcdefull);
    EXPECT_EQ(s.readU64(200), 0x0123456789abcdefull);
}

TEST(Storage, LittleEndianLayout)
{
    Storage s;
    s.writeU64(0, 0x0807060504030201ull);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(s.readU8(i), i + 1);
}

TEST(Storage, UnalignedAccess)
{
    Storage s;
    s.writeU64(3, 0x1122334455667788ull);
    EXPECT_EQ(s.readU64(3), 0x1122334455667788ull);
    EXPECT_EQ(s.readU32(5), 0x33445566u);
}

TEST(Storage, BlockAcrossChunkBoundary)
{
    Storage s;
    const Addr boundary = Storage::chunkBytes;
    std::vector<std::uint8_t> src(4096);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7);

    s.writeBlock(boundary - 2048, src.data(), src.size());
    std::vector<std::uint8_t> dst(src.size());
    s.readBlock(boundary - 2048, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
    EXPECT_EQ(s.chunksAllocated(), 2u);
}

TEST(Storage, ReadBlockFromUntouchedIsZero)
{
    Storage s;
    std::uint8_t buf[16];
    std::memset(buf, 0xff, sizeof(buf));
    s.readBlock(12345, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0u);
}

TEST(Storage, SparseAllocation)
{
    Storage s;
    s.writeU8(0, 1);
    s.writeU8(10 * Storage::chunkBytes, 2);
    EXPECT_EQ(s.chunksAllocated(), 2u);
}

TEST(Storage, OutOfRangePanics)
{
    t3dsim::detail::setThrowOnError(true);
    Storage s(1024);
    EXPECT_THROW(s.readU8(1024), std::runtime_error);
    EXPECT_THROW(s.writeU64(1020, 1), std::runtime_error);
    EXPECT_NO_THROW(s.writeU64(1016, 1));
    t3dsim::detail::setThrowOnError(false);
}

TEST(Storage, Limit)
{
    Storage s(4096);
    EXPECT_EQ(s.limit(), 4096u);
}

TEST(Storage, CustomChunkShift)
{
    Storage s(Addr{1} << 27, 12);
    EXPECT_EQ(s.chunkSize(), 4096u);
    s.writeU8(0, 1);
    s.writeU8(4095, 2);
    EXPECT_EQ(s.chunksAllocated(), 1u);
    s.writeU8(4096, 3);
    EXPECT_EQ(s.chunksAllocated(), 2u);
    EXPECT_EQ(s.readU8(0), 1u);
    EXPECT_EQ(s.readU8(4095), 2u);
    EXPECT_EQ(s.readU8(4096), 3u);
}

TEST(Storage, ChunkShiftClampedToSupportedRange)
{
    Storage tiny(1 * t3dsim::MiB, 1);
    EXPECT_EQ(tiny.chunkSize(), std::size_t{1} << Storage::minChunkShift);
    Storage huge(64 * t3dsim::MiB, 40);
    EXPECT_EQ(huge.chunkSize(), std::size_t{1} << Storage::maxChunkShift);
}

TEST(Storage, GroupsMaterializeLazily)
{
    Storage s;
    EXPECT_EQ(s.groupsAllocated(), 0u);
    const std::size_t empty_bytes = s.residentBytes();

    // Reads never materialize a group.
    EXPECT_EQ(s.readU64(0), 0u);
    EXPECT_EQ(s.groupsAllocated(), 0u);

    // Two chunks in the same group: one group allocation.
    s.writeU8(0, 1);
    s.writeU8(Storage::chunkBytes, 2);
    EXPECT_EQ(s.groupsAllocated(), 1u);
    EXPECT_EQ(s.chunksAllocated(), 2u);

    // A chunk in a different group's range adds a second group.
    s.writeU8(Storage::groupSlots * Storage::chunkBytes, 3);
    EXPECT_EQ(s.groupsAllocated(), 2u);
    EXPECT_GT(s.residentBytes(), empty_bytes);
}

TEST(Storage, PeekSpan)
{
    Storage s;
    std::size_t span = 0;

    // Untouched chunk: null pointer, span still clamped to the
    // chunk boundary (the caller fast-forwards that many zeros).
    EXPECT_EQ(s.peekSpan(0, 128, span), nullptr);
    EXPECT_EQ(span, 128u);
    EXPECT_EQ(s.peekSpan(Storage::chunkBytes - 16, 4096, span),
              nullptr);
    EXPECT_EQ(span, 16u) << "span never crosses a chunk boundary";
    EXPECT_EQ(s.chunksAllocated(), 0u) << "peek must not materialize";

    // Present chunk: direct pointer to the backing bytes.
    s.writeU64(32, 0x1122334455667788ull);
    const std::uint8_t *p = s.peekSpan(32, 8, span);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(span, 8u);
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    EXPECT_EQ(v, 0x1122334455667788ull);

    // Span from mid-chunk runs to the chunk end, capped by max_len.
    p = s.peekSpan(Storage::chunkBytes - 8, 4096, span);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(span, 8u);
}

TEST(Storage, WriteMaskedMatchesBytewiseReference)
{
    // writeMasked against a shadow buffer updated by a plain byte
    // loop: byte i of [addr, addr+len) takes data[i] iff bit i of
    // the mask is set, and every other byte keeps its value. The
    // smallest chunk size puts chunk boundaries within a line's reach.
    constexpr unsigned shift = Storage::minChunkShift;
    constexpr Addr chunk = Addr{1} << shift;
    constexpr Addr span = 4 * chunk;
    Storage s(span, shift);
    std::vector<std::uint8_t> shadow(span);
    std::uint64_t rng = 42;
    for (Addr a = 0; a < span; a += 8) {
        const std::uint64_t v = t3dsim::hash::splitMix64(rng);
        s.writeU64(a, v);
        std::memcpy(&shadow[a], &v, sizeof(v));
    }

    // Aligned, unaligned, and near a chunk end (crossing it once
    // the length passes the distance to the boundary).
    const Addr bases[] = {
        chunk,          chunk + 8,      chunk + 32,     chunk + 1,
        chunk + 5,      chunk + 27,     2 * chunk - 1,  2 * chunk - 4,
        2 * chunk - 8,  2 * chunk - 13, 2 * chunk - 32, 2 * chunk - 63,
    };
    std::uint8_t data[64];
    std::vector<std::uint8_t> got(span);
    for (std::size_t len = 1; len <= 64; ++len) {
        for (const Addr addr : bases) {
            const std::uint64_t r1 = t3dsim::hash::splitMix64(rng);
            const std::uint64_t r2 = t3dsim::hash::splitMix64(rng);
            // All bits, none, random, sparse, dense: every mask has
            // bits at and above len set, which must be ignored.
            const std::uint64_t masks[] = {~std::uint64_t{0},
                                           std::uint64_t{0}, r1,
                                           r1 & r2, r1 | r2};
            for (const std::uint64_t mask : masks) {
                for (auto &b : data)
                    b = static_cast<std::uint8_t>(
                        t3dsim::hash::splitMix64(rng));
                s.writeMasked(addr, data, mask, len);
                for (std::size_t i = 0; i < len; ++i) {
                    if (mask & (std::uint64_t{1} << i))
                        shadow[addr + i] = data[i];
                }
                s.readBlock(0, got.data(), span);
                const auto diff = std::mismatch(got.begin(), got.end(),
                                                shadow.begin());
                ASSERT_TRUE(diff.first == got.end())
                    << "byte " << (diff.first - got.begin())
                    << " differs after writeMasked(addr=" << addr
                    << ", mask=0x" << std::hex << mask << std::dec
                    << ", len=" << len << ")";
            }
        }
    }
}

} // namespace
