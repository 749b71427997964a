/**
 * @file
 * Integration tests of the binding prefetch queue (§5.2): single
 * prefetch ≈ blocking read + 15 cycles; groups of 16 approach ~31
 * cycles per element; binding semantics; FIFO order; overflow panic.
 */

#include <gtest/gtest.h>

#include "alpha/address.hh"
#include "machine/machine.hh"
#include "shell/annex.hh"
#include "sim/logging.hh"

namespace
{

using namespace t3dsim;
using machine::Machine;
using machine::MachineConfig;
using shell::ReadMode;

struct PrefetchTest : ::testing::Test
{
    Machine m{MachineConfig::t3d(8)};
    machine::Node &n0 = m.node(0);
    machine::Node &n1 = m.node(1);

    void
    SetUp() override
    {
        n0.shell().setAnnex(1, {1, ReadMode::Uncached});
        for (int i = 0; i < 256; ++i)
            n1.storage().writeU64(0x1000 + 8 * i, 100 + i);
        // Warm the remote DRAM page.
        n0.loadU64(va(0));
    }

    Addr va(int i) { return alpha::makeAnnexedVa(1, 0x1000 + 8 * i); }
};

TEST_F(PrefetchTest, SinglePrefetchReturnsData)
{
    n0.fetchHint(va(3));
    n0.mb();
    EXPECT_EQ(n0.popPrefetch(), 103u);
}

TEST_F(PrefetchTest, SingleCostsBlockingReadPlusAbout15)
{
    n0.core().storeU64(0x100, 0); // warm the local TLB page
    // Blocking read reference.
    Cycles t0 = n0.clock().now();
    n0.loadU64(va(1));
    const double blocking = double(n0.clock().now() - t0);

    // Prefetch + MB + pop + local store.
    t0 = n0.clock().now();
    n0.fetchHint(va(2));
    n0.mb();
    const std::uint64_t v = n0.popPrefetch();
    n0.core().storeU64(0x100, v);
    const double prefetched = double(n0.clock().now() - t0);

    EXPECT_NEAR(prefetched - blocking, 15.0, 10.0)
        << "blocking=" << blocking << " prefetched=" << prefetched;
}

TEST_F(PrefetchTest, GroupOf16Near31CyclesPerElement)
{
    const Cycles t0 = n0.clock().now();
    for (int i = 0; i < 16; ++i)
        n0.fetchHint(va(i));
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t v = n0.popPrefetch();
        n0.core().storeU64(0x100 + 8 * i, v);
    }
    const double per_elem = double(n0.clock().now() - t0) / 16.0;
    EXPECT_NEAR(per_elem, 31.0, 4.0);
}

TEST_F(PrefetchTest, PipeliningBeatsBlockingReads)
{
    // Four blocking reads...
    Cycles t0 = n0.clock().now();
    for (int i = 0; i < 4; ++i)
        n0.loadU64(va(8 + i));
    const double blocking4 = double(n0.clock().now() - t0);

    // ...versus four prefetches + pops.
    t0 = n0.clock().now();
    for (int i = 0; i < 4; ++i)
        n0.fetchHint(va(16 + i));
    for (int i = 0; i < 4; ++i)
        n0.popPrefetch();
    const double prefetch4 = double(n0.clock().now() - t0);

    EXPECT_LT(prefetch4, blocking4)
        << "§5.2: grouped prefetch is significantly faster";
}

TEST_F(PrefetchTest, FifoOrder)
{
    n0.fetchHint(va(5));
    n0.fetchHint(va(6));
    n0.fetchHint(va(7));
    n0.mb();
    EXPECT_EQ(n0.popPrefetch(), 105u);
    EXPECT_EQ(n0.popPrefetch(), 106u);
    EXPECT_EQ(n0.popPrefetch(), 107u);
}

TEST_F(PrefetchTest, BindingSemantics)
{
    // The value is captured when the remote memory services the
    // request; later updates do not affect the queued copy.
    n0.fetchHint(va(9));
    n0.mb();
    n1.storage().writeU64(0x1000 + 8 * 9, 999);
    EXPECT_EQ(n0.popPrefetch(), 109u)
        << "binding prefetch holds the old value";
}

TEST_F(PrefetchTest, OutstandingCountAndMbThreshold)
{
    auto &pq = n0.shell().prefetch();
    EXPECT_TRUE(pq.needsMbBeforePop()) << "0 outstanding";
    for (int i = 0; i < 4; ++i)
        n0.fetchHint(va(i));
    EXPECT_EQ(pq.outstanding(), 4u);
    EXPECT_FALSE(pq.needsMbBeforePop()) << ">=4 pushed out naturally";
    for (int i = 0; i < 4; ++i)
        n0.popPrefetch();
}

TEST_F(PrefetchTest, OverflowSpillsInsteadOfAborting)
{
    auto &pq = n0.shell().prefetch();
    probes::PerfCounters ctr;
    pq.setObservability(&ctr, nullptr);
    for (int i = 0; i < 16; ++i)
        n0.fetchHint(va(i));
    EXPECT_TRUE(pq.full());
    EXPECT_EQ(ctr.prefetchSpills, 0u);

    // The 17th issue overflows the hardware slots: it is spilled to
    // the DRAM-side buffer rather than corrupting the FIFO.
    n0.fetchHint(va(16));
    EXPECT_EQ(ctr.prefetchSpills, 1u);
    EXPECT_EQ(pq.outstanding(), 17u);

    // FIFO order and binding semantics survive the spill, and every
    // entry (including the spilled one) still returns its data.
    for (int i = 0; i < 17; ++i)
        EXPECT_EQ(n0.popPrefetch(), 100u + i);
    EXPECT_TRUE(pq.empty());
}

TEST_F(PrefetchTest, SpilledEntryPaysTheSpillCost)
{
    // Reference: issue+pop cost of the 16th (last in-capacity) entry.
    for (int i = 0; i < 15; ++i)
        n0.fetchHint(va(i));
    Cycles t0 = n0.clock().now();
    n0.fetchHint(va(15));
    const Cycles inCapacityIssue = n0.clock().now() - t0;

    // The spilled 17th entry pays the spill premium at issue...
    t0 = n0.clock().now();
    n0.fetchHint(va(16));
    const Cycles spilledIssue = n0.clock().now() - t0;
    EXPECT_EQ(spilledIssue, inCapacityIssue + m.config().shell.prefetchSpillCycles);

    // ...and again when it is recovered at pop (measured against the
    // in-capacity entry popped immediately before it, after the
    // network round trips have long completed).
    for (int i = 0; i < 15; ++i)
        n0.popPrefetch();
    n0.clock().advance(100000);
    t0 = n0.clock().now();
    n0.popPrefetch();
    const Cycles inCapacityPop = n0.clock().now() - t0;
    t0 = n0.clock().now();
    n0.popPrefetch();
    const Cycles spilledPop = n0.clock().now() - t0;
    EXPECT_EQ(spilledPop, inCapacityPop + m.config().shell.prefetchSpillCycles);
}

TEST_F(PrefetchTest, PopEmptyPanics)
{
    detail::setThrowOnError(true);
    EXPECT_THROW(n0.popPrefetch(), std::runtime_error);
    detail::setThrowOnError(false);
}

TEST_F(PrefetchTest, LocalPrefetchWorks)
{
    n0.storage().writeU64(0x2000, 55);
    n0.fetchHint(alpha::makeAnnexedVa(0, 0x2000));
    n0.mb();
    EXPECT_EQ(n0.popPrefetch(), 55u);
}

} // namespace
