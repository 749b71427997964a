/**
 * @file
 * Integration tests of the block transfer engine (§6.2): 180 us
 * startup, 140 MB/s streaming reads, strided transfers, cache
 * invalidation of DMA destinations.
 */

#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.hh"

namespace
{

using namespace t3dsim;
using machine::Machine;
using machine::MachineConfig;

struct BltTest : ::testing::Test
{
    Machine m{MachineConfig::t3d(8)};
    machine::Node &n0 = m.node(0);
    machine::Node &n1 = m.node(1);
};

TEST_F(BltTest, StartupChargesProcessor180us)
{
    const Cycles t0 = n0.clock().now();
    n0.shell().blt().startRead(1, 0x1000, 0x1000, 4096);
    const double us = cyclesToUs(n0.clock().now() - t0);
    EXPECT_NEAR(us, 180.0, 2.0) << "§6.3: BLT initiation is 180 us";
}

TEST_F(BltTest, ReadMovesData)
{
    for (int i = 0; i < 512; ++i)
        n1.storage().writeU64(0x4000 + 8 * i, i * 3);
    const Cycles done =
        n0.shell().blt().startRead(1, 0x4000, 0x8000, 4096);
    n0.shell().blt().wait(done);
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(n0.storage().readU64(0x8000 + 8 * i),
                  std::uint64_t(i) * 3);
}

TEST_F(BltTest, WriteMovesData)
{
    for (int i = 0; i < 128; ++i)
        n0.storage().writeU64(0x4000 + 8 * i, i + 7);
    const Cycles done =
        n0.shell().blt().startWrite(1, 0x9000, 0x4000, 1024);
    n0.shell().blt().wait(done);
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(n1.storage().readU64(0x9000 + 8 * i),
                  std::uint64_t(i) + 7);
}

TEST_F(BltTest, LargeReadApproaches140MBps)
{
    const std::size_t bytes = 1024 * KiB;
    const Cycles t0 = n0.clock().now();
    const Cycles done = n0.shell().blt().startRead(1, 0, 0x100000,
                                                   bytes);
    n0.shell().blt().wait(done);
    const double secs = cyclesToNs(n0.clock().now() - t0) * 1e-9;
    const double mbps = (double(bytes) / 1e6) / secs;
    EXPECT_NEAR(mbps, 140.0, 12.0) << "§6.2 peak transfer rate";
}

TEST_F(BltTest, SmallTransfersDominatedByStartup)
{
    const Cycles t0 = n0.clock().now();
    const Cycles done = n0.shell().blt().startRead(1, 0, 0x100000, 128);
    n0.shell().blt().wait(done);
    const double us = cyclesToUs(n0.clock().now() - t0);
    EXPECT_GT(us, 179.0);
    EXPECT_LT(us, 185.0);
}

TEST_F(BltTest, DmaInvalidatesDestinationCacheLines)
{
    n0.storage().writeU64(0x8000, 1);
    n0.core().loadU64(0x8000); // cache the stale destination
    ASSERT_TRUE(n0.dcache().probe(0x8000));

    n1.storage().writeU64(0x4000, 42);
    const Cycles done = n0.shell().blt().startRead(1, 0x4000, 0x8000, 64);
    n0.shell().blt().wait(done);
    EXPECT_FALSE(n0.dcache().probe(0x8000));
    EXPECT_EQ(n0.core().loadU64(0x8000), 42u);
}

TEST_F(BltTest, StridedReadGathers)
{
    // Remote: every fourth word; local: packed.
    for (int i = 0; i < 16; ++i)
        n1.storage().writeU64(0x4000 + 32 * i, 1000 + i);
    const Cycles done = n0.shell().blt().startStridedRead(
        1, 0x4000, /*remote_stride=*/32, 0xa000, /*local_stride=*/8,
        /*elem_bytes=*/8, /*count=*/16);
    n0.shell().blt().wait(done);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(n0.storage().readU64(0xa000 + 8 * i),
                  1000u + unsigned(i));
}

TEST_F(BltTest, StridedWriteScatters)
{
    for (int i = 0; i < 8; ++i)
        n0.storage().writeU64(0xa000 + 8 * i, 2000 + i);
    const Cycles done = n0.shell().blt().startStridedWrite(
        1, 0x5000, /*remote_stride=*/64, 0xa000, /*local_stride=*/8, 8,
        8);
    n0.shell().blt().wait(done);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(n1.storage().readU64(0x5000 + 64 * i),
                  2000u + unsigned(i));
}

TEST_F(BltTest, TransferCountStatistic)
{
    probes::PerfCounters ctr;
    n0.shell().blt().setObservability(&ctr, nullptr);
    n0.shell().blt().startRead(1, 0, 0x1000, 64);
    n0.shell().blt().startWrite(1, 0, 0x1000, 64);
    EXPECT_EQ(ctr.bltTransfers, 2u);
}

} // namespace
