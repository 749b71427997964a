/**
 * @file
 * Unit tests for the AlphaCore local memory path, reproducing the
 * §2.2/§2.3 local micro-benchmark structure at small scale.
 */

#include <gtest/gtest.h>

#include "alpha/address.hh"
#include "probes/stride.hh"
#include "sim/logging.hh"

#include "local_node.hh"

namespace
{

using namespace t3dsim;
using t3dsim::testing::LocalNode;

TEST(Core, LoadMissCostsMemoryAccess)
{
    LocalNode n;
    n.storage.writeU64(0x1000, 77);
    n.core.loadU64(0x0); // warm TLB page and DRAM row
    const Cycles t0 = n.clock.now();
    EXPECT_EQ(n.core.loadU64(0x1000), 77u);
    // In-page memory access: 22 cycles / ~145 ns (Sec. 2.2).
    EXPECT_EQ(n.clock.now() - t0, 22u);
}

TEST(Core, ColdLoadAddsTlbAndPageOpen)
{
    LocalNode n;
    const Cycles t0 = n.clock.now();
    n.core.loadU64(0x1000);
    // 22 + 9 (row open) + 35 (TLB fill) on a completely cold node.
    EXPECT_EQ(n.clock.now() - t0, 66u);
}

TEST(Core, LoadHitCostsOneCycle)
{
    LocalNode n;
    n.storage.writeU64(0x1000, 77);
    n.core.loadU64(0x1000); // fill
    const Cycles t0 = n.clock.now();
    EXPECT_EQ(n.core.loadU64(0x1000), 77u);
    EXPECT_EQ(n.clock.now() - t0, 1u);
    EXPECT_EQ(n.counters.l1Hits, 1u);
}

TEST(Core, ReadAllocatePullsWholeLine)
{
    LocalNode n;
    n.storage.writeU64(0x1000, 1);
    n.storage.writeU64(0x1018, 2);
    n.core.loadU64(0x1000);
    const Cycles t0 = n.clock.now();
    EXPECT_EQ(n.core.loadU64(0x1018), 2u) << "same line";
    EXPECT_EQ(n.clock.now() - t0, 1u);
}

TEST(Core, StoreCostsIssueCycles)
{
    LocalNode n;
    n.core.loadU64(0x2000); // warm TLB
    const Cycles t0 = n.clock.now();
    n.core.storeU64(0x2040, 42);
    EXPECT_EQ(n.clock.now() - t0, 3u);
}

TEST(Core, WriteThroughUpdatesCachedLine)
{
    LocalNode n;
    n.storage.writeU64(0x1000, 5);
    n.core.loadU64(0x1000);
    n.core.storeU64(0x1000, 9);
    EXPECT_EQ(n.core.loadU64(0x1000), 9u) << "cache sees the store";
}

TEST(Core, NoWriteAllocate)
{
    LocalNode n;
    n.core.storeU64(0x3000, 1);
    EXPECT_FALSE(n.dcache.probe(0x3000));
}

TEST(Core, MbDrainsWriteBuffer)
{
    LocalNode n;
    n.core.storeU64(0x2000, 42);
    EXPECT_EQ(n.storage.readU64(0x2000), 0u) << "still buffered";
    n.core.mb();
    EXPECT_EQ(n.storage.readU64(0x2000), 42u);
}

TEST(Core, LoadAfterStoreSameLineStalls)
{
    LocalNode n;
    n.core.storeU64(0x2000, 42);
    // Miss on the pending line: must drain first, then read fresh.
    EXPECT_EQ(n.core.loadU64(0x2000), 42u);
}

TEST(Core, ByteLoadComposition)
{
    LocalNode n;
    n.storage.writeU64(0x1000, 0x8877665544332211ull);
    EXPECT_EQ(n.core.loadU8(0x1003), 0x44u);
}

TEST(Core, ByteStoreReadModifyWrite)
{
    LocalNode n;
    n.storage.writeU64(0x1000, 0x8877665544332211ull);
    n.core.storeU8(0x1002, 0xff);
    n.core.mb();
    EXPECT_EQ(n.core.loadU64(0x1000), 0x8877665544ff2211ull)
        << "byte replaced";
}

TEST(Core, UnalignedLoadPanics)
{
    detail::setThrowOnError(true);
    LocalNode n;
    EXPECT_THROW(n.core.loadU64(0x1001), std::runtime_error);
    detail::setThrowOnError(false);
}

TEST(Core, FlushLineChargesAndInvalidates)
{
    LocalNode n;
    n.core.loadU64(0x1000);
    const Cycles t0 = n.clock.now();
    n.core.flushLine(0x1000);
    EXPECT_EQ(n.clock.now() - t0, 23u);
    EXPECT_FALSE(n.dcache.probe(0x1000));
}

TEST(Core, PeekPokeUntimed)
{
    LocalNode n;
    const Cycles t0 = n.clock.now();
    n.core.pokeU64(0x4000, 123);
    EXPECT_EQ(n.core.peekU64(0x4000), 123u);
    EXPECT_EQ(n.clock.now(), t0);
}

// ---------------------------------------------------------------
// §2.2 local read latency profile (Figure 1 left, in miniature)
// ---------------------------------------------------------------

TEST(Core, Figure1ReadProfile)
{
    LocalNode n;
    auto points = probes::strideProbe(
        [&](Addr a) { n.core.loadU64(a); },
        [&] { return n.clock.now(); },
        /*base=*/0, /*min_array=*/4 * KiB, /*max_array=*/512 * KiB);

    // In-cache array: every read ~1 cycle (6.67 ns).
    auto *p = probes::findPoint(points, 4 * KiB, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_NEAR(p->avgCyclesPerOp, 1.0, 0.1);

    // 8 KB array still fits (the L1 size, §2.2).
    p = probes::findPoint(points, 8 * KiB, 8);
    EXPECT_NEAR(p->avgCyclesPerOp, 1.0, 0.1);

    // Larger arrays at line stride: every read misses, ~22 cycles.
    p = probes::findPoint(points, 64 * KiB, 32);
    ASSERT_NE(p, nullptr);
    EXPECT_NEAR(p->avgCyclesPerOp, 22.0, 1.5);

    // Stride 8 on a big array: 1 miss + 3 hits per line.
    p = probes::findPoint(points, 64 * KiB, 8);
    EXPECT_NEAR(p->avgCyclesPerOp, (22.0 + 3.0) / 4.0, 1.0);

    // 16 KB stride: off-page DRAM, ~31 cycles (~205 ns).
    p = probes::findPoint(points, 256 * KiB, 16 * KiB);
    ASSERT_NE(p, nullptr);
    EXPECT_NEAR(p->avgCyclesPerOp, 31.0, 1.5);

    // 64 KB stride: same-bank worst case, ~40 cycles (264 ns).
    p = probes::findPoint(points, 512 * KiB, 64 * KiB);
    ASSERT_NE(p, nullptr);
    EXPECT_NEAR(p->avgCyclesPerOp, 40.0, 1.5);
}

TEST(Core, DirectMappedNoDropAtLargeStride)
{
    // §2.2: "the access time does not drop to the cache-hit time for
    // large strides" — two addresses at half-array distance conflict
    // in a direct-mapped cache.
    LocalNode n;
    auto points = probes::strideProbe(
        [&](Addr a) { n.core.loadU64(a); },
        [&] { return n.clock.now(); },
        0, 32 * KiB, 32 * KiB);
    auto *p = probes::findPoint(points, 32 * KiB, 16 * KiB);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->avgCyclesPerOp, 20.0) << "no associativity rescue";
}

// ---------------------------------------------------------------
// §2.3 local write profile (Figure 2, in miniature)
// ---------------------------------------------------------------

TEST(Core, Figure2WriteProfile)
{
    LocalNode n;
    auto points = probes::strideProbe(
        [&](Addr a) { n.core.storeU64(a, 7); },
        [&] { return n.clock.now(); },
        0, 4 * KiB, 256 * KiB);

    // Small stride: write merging, ~3 cycles (20 ns).
    auto *p = probes::findPoint(points, 64 * KiB, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_LT(p->avgNsPerOp, 28.0);

    // Stride 32: one line per store, ~35 ns steady state.
    p = probes::findPoint(points, 64 * KiB, 32);
    ASSERT_NE(p, nullptr);
    EXPECT_NEAR(p->avgNsPerOp, 35.0, 8.0);

    // Stride 16 KB: every store off-page, distinctly slower.
    p = probes::findPoint(points, 256 * KiB, 16 * KiB);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->avgNsPerOp, 45.0);
}

} // namespace
