/**
 * @file
 * Unit tests for the 4-entry merging write buffer (§2.3), including
 * deferred commit — the property behind the §3.4 synonym hazard.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "alpha/write_buffer.hh"
#include "local_node.hh"
#include "mem/dram.hh"
#include "mem/storage.hh"
#include "probes/counters.hh"
#include "sim/types.hh"

namespace
{

using namespace t3dsim;
using alpha::DrainPort;
using alpha::WriteBuffer;

/** DRAM-backed drain port with deferred commit, as on a node. */
class TestPort : public DrainPort
{
  public:
    TestPort()
        : storage(Addr{1} << 32)
    {
    }

    DrainResult
    drainLine(Cycles ready, Addr pa, const std::uint8_t *,
              std::uint32_t, std::uint32_t) override
    {
        ++drains;
        auto access = dram.access(ready, pa);
        return {access.complete, true};
    }

    void
    commitLine(Addr pa, const std::uint8_t *data,
               std::uint32_t byte_mask) override
    {
        ++commits;
        storage.writeMasked(pa, data, byte_mask, alpha::wbLineBytes);
    }

    mem::Storage storage;
    mem::DramController dram;
    int drains = 0;
    int commits = 0;
};

struct WbTest : ::testing::Test
{
    WbTest() { wb.setCounters(&counters); }

    TestPort port;
    WriteBuffer wb{WriteBuffer::Config{}, port};
    probes::PerfCounters counters;
};

TEST_F(WbTest, AcceptCostIsIssueCycles)
{
    std::uint64_t v = 1;
    EXPECT_EQ(wb.write(0, 0x100, &v, 8), 3u);
    EXPECT_EQ(wb.occupancy(0), 1u);
}

TEST_F(WbTest, SameLineStoresMerge)
{
    std::uint64_t v = 1;
    wb.write(0, 0x100, &v, 8);
    wb.write(3, 0x108, &v, 8); // same 32-byte line, within hold-off
    EXPECT_EQ(counters.wbMerges, 1u);
    EXPECT_EQ(wb.occupancy(3), 1u);
}

TEST_F(WbTest, DifferentLinesTakeSlots)
{
    std::uint64_t v = 1;
    wb.write(0, 0x100, &v, 8);
    wb.write(3, 0x200, &v, 8);
    EXPECT_EQ(counters.wbMerges, 0u);
    EXPECT_EQ(wb.occupancy(3), 2u);
}

TEST_F(WbTest, MergeWindowExpires)
{
    std::uint64_t v = 1;
    wb.write(0, 0x100, &v, 8);
    // After the hold-off the entry has issued: same-line store gets
    // a fresh slot instead of merging.
    wb.write(20, 0x108, &v, 8);
    EXPECT_EQ(counters.wbMerges, 0u);
}

TEST_F(WbTest, FullBufferStalls)
{
    std::uint64_t v = 1;
    Cycles charged = 0;
    // Fill all four entries back-to-back.
    for (int i = 0; i < 4; ++i)
        charged = wb.write(Cycles(i) * 3, Addr(0x100) + 0x40 * i, &v, 8);
    EXPECT_EQ(charged, 3u) << "fourth store still unstalled";
    // Fifth store must wait for a retirement.
    charged = wb.write(12, 0x100 + 0x40 * 4, &v, 8);
    EXPECT_GT(charged, 3u);
    EXPECT_GT(counters.wbStallCycles, 0u);
}

TEST_F(WbTest, DataInvisibleUntilCommit)
{
    std::uint64_t v = 0xabcd;
    wb.write(0, 0x100, &v, 8);
    // Storage must still be zero: the write sits in the buffer.
    EXPECT_EQ(port.storage.readU64(0x100), 0u);
    // Drain and advance past completion: now visible.
    Cycles done = wb.drainAll(0);
    wb.commitUpTo(done);
    EXPECT_EQ(port.storage.readU64(0x100), 0xabcdu);
    EXPECT_EQ(port.commits, 1);
}

TEST_F(WbTest, ForwardReturnsPendingBytes)
{
    std::uint64_t v = 0x1122334455667788ull;
    wb.write(0, 0x100, &v, 8);
    std::uint64_t buf = 0;
    EXPECT_TRUE(wb.forward(1, 0x100, &buf, 8));
    EXPECT_EQ(buf, v);
}

TEST_F(WbTest, ForwardIsByExactPhysicalAddress)
{
    // The §3.4 hazard in miniature: a synonym physical address does
    // NOT match the pending entry.
    std::uint64_t v = 0x42;
    wb.write(0, 0x100, &v, 8);
    std::uint64_t buf = 0;
    EXPECT_FALSE(wb.forward(1, (Addr{1} << 27) | 0x100, &buf, 8));
    EXPECT_EQ(buf, 0u);
}

TEST_F(WbTest, ForwardPartialOverlap)
{
    std::uint32_t v = 0xdeadbeef;
    wb.write(0, 0x104, &v, 4);
    std::uint64_t buf = 0;
    EXPECT_TRUE(wb.forward(1, 0x100, &buf, 8));
    EXPECT_EQ(buf, std::uint64_t{0xdeadbeef} << 32);
}

TEST_F(WbTest, HoldsLine)
{
    std::uint64_t v = 1;
    wb.write(0, 0x100, &v, 8);
    EXPECT_TRUE(wb.holdsLine(1, 0x11f));
    EXPECT_FALSE(wb.holdsLine(1, 0x120));
    Cycles done = wb.drainAll(1);
    wb.commitUpTo(done);
    EXPECT_FALSE(wb.holdsLine(done, 0x100));
}

TEST_F(WbTest, DrainAllEmptiesBuffer)
{
    std::uint64_t v = 1;
    for (int i = 0; i < 3; ++i)
        wb.write(0, Addr(0x100) + 0x40 * i, &v, 8);
    Cycles done = wb.drainAll(0);
    EXPECT_GT(done, 0u);
    wb.commitUpTo(done);
    EXPECT_EQ(wb.occupancy(done), 0u);
    EXPECT_EQ(port.commits, 3);
}

TEST_F(WbTest, SteadyStateThroughputNear35ns)
{
    // §2.3: a line-distinct store stream retires one entry per
    // ~35 ns (5.25 cycles) against a 145 ns memory.
    std::uint64_t v = 1;
    Cycles now = 0;
    // Warm up.
    for (int i = 0; i < 64; ++i)
        now += wb.write(now, Addr(0x10000) + 32 * i, &v, 8);
    const Cycles start = now;
    const int n = 256;
    for (int i = 0; i < n; ++i)
        now += wb.write(now, Addr(0x20000) + 32 * i, &v, 8);
    const double per_store = double(now - start) / n;
    EXPECT_GT(per_store, 4.0);
    EXPECT_LT(per_store, 7.5) << "expected ~5.25 cycles = 35 ns";
}

TEST_F(WbTest, MergedStreamCostsIssueOnly)
{
    // §2.3: stride-8 stores (4 per line) average ~3 cycles.
    std::uint64_t v = 1;
    Cycles now = 0;
    for (int i = 0; i < 64; ++i)
        now += wb.write(now, Addr(0x10000) + 8 * i, &v, 8);
    const Cycles start = now;
    const int n = 512;
    for (int i = 0; i < n; ++i)
        now += wb.write(now, Addr(0x20000) + 8 * i, &v, 8);
    const double per_store = double(now - start) / n;
    EXPECT_LT(per_store, 4.0) << "merged writes cost ~issue only";
}

TEST_F(WbTest, CommitWritesOnlyMaskedBytes)
{
    // Three lines over a known pattern, stored through a whole core
    // so storeU8 is the real read-modify-write: line 0x100 takes four
    // merged U64 stores, line 0x120 one U32 at offset 28, and line
    // 0x140 one storeU8 (a U64 store of the re-read quadword).
    t3dsim::testing::LocalNode node;
    constexpr Addr base = 0x100;
    std::uint8_t expect[3 * alpha::wbLineBytes];
    for (std::size_t i = 0; i < sizeof(expect); ++i)
        expect[i] = static_cast<std::uint8_t>(i * 37 + 11);
    node.storage.writeBlock(base, expect, sizeof(expect));

    for (unsigned k = 0; k < 4; ++k) {
        const std::uint64_t v = 0x0101010101010101ull * (0xa0 + k);
        node.core.storeU64(base + 8 * k, v);
        std::memcpy(expect + 8 * k, &v, sizeof(v));
    }
    EXPECT_EQ(node.counters.wbMerges, 3u) << "four U64 stores, one entry";

    const std::uint32_t w = 0xdeadbeef;
    node.core.storeU32(base + 32 + 28, w);
    std::memcpy(expect + 32 + 28, &w, sizeof(w));

    node.core.storeU8(base + 64 + 13, 0x5a);
    expect[64 + 13] = 0x5a;

    node.core.mb();
    EXPECT_EQ(node.wb.occupancy(node.clock.now()), 0u);
    std::uint8_t got[sizeof(expect)];
    node.storage.readBlock(base, got, sizeof(got));
    for (std::size_t i = 0; i < sizeof(expect); ++i)
        EXPECT_EQ(got[i], expect[i]) << "byte " << i;
    EXPECT_EQ(node.storage.readU64(base - 8), 0u);
    EXPECT_EQ(node.storage.readU64(base + sizeof(expect)), 0u);
}

} // namespace
