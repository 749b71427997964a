/**
 * @file
 * Tests of split-phase get/put (§5): correctness, sync semantics,
 * pipelining gains, ~300 ns put cost, 16-deep get table handling.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

namespace
{

using namespace t3dsim;
using machine::Machine;
using machine::MachineConfig;
using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;
using splitc::runSpmd;

struct GetPutTest : ::testing::Test
{
    Machine m{MachineConfig::t3d(4)};

    void
    SetUp() override
    {
        for (int i = 0; i < 64; ++i)
            m.node(1).storage().writeU64(0x30000 + 8 * i, 500 + i);
    }
};

TEST_F(GetPutTest, GetDeliversAfterSync)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            const Addr dst = 0x10000;
            p.getU64(GlobalAddr::make(1, 0x30000), dst);
            p.sync();
            EXPECT_EQ(p.node().core().loadU64(dst), 500u);
        }
        co_return;
    });
}

TEST_F(GetPutTest, ManyGetsPipelome)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() != 0)
            co_return;
        // 16 gets back to back (one queue's worth).
        const Cycles t0 = p.now();
        for (int i = 0; i < 16; ++i)
            p.getU64(GlobalAddr::make(1, 0x30000 + 8 * i),
                     0x10000 + 8 * i);
        p.sync();
        const double per_get = double(p.now() - t0) / 16.0;

        // Blocking reads for comparison.
        const Cycles t1 = p.now();
        for (int i = 0; i < 16; ++i)
            p.readU64(GlobalAddr::make(1, 0x30000 + 8 * i));
        const double per_read = double(p.now() - t1) / 16.0;

        EXPECT_LT(per_get, per_read / 1.8)
            << "§5.2: pipelined gets are much cheaper";
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(p.node().core().loadU64(0x10000 + 8 * i),
                      500u + i);
        co_return;
    });
}

TEST_F(GetPutTest, MoreGetsThanQueueSlots)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() != 0)
            co_return;
        // 40 > 16 forces intermediate drains.
        for (int i = 0; i < 40; ++i)
            p.getU64(GlobalAddr::make(1, 0x30000 + 8 * i),
                     0x10000 + 8 * i);
        p.sync();
        for (int i = 0; i < 40; ++i)
            EXPECT_EQ(p.node().core().loadU64(0x10000 + 8 * i),
                      500u + i);
        co_return;
    });
}

TEST_F(GetPutTest, PutDeliversAfterSync)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.putU64(GlobalAddr::make(1, 0x40000), 777);
            p.sync();
        }
        co_return;
    });
    EXPECT_EQ(m.node(1).storage().readU64(0x40000), 777u);
}

TEST_F(GetPutTest, PutCostNear300ns)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() != 0)
            co_return;
        // Warm up: annex + remote pages on both targets.
        for (int i = 0; i < 8; ++i)
            p.putU64(GlobalAddr::make(1 + (i % 2), 0x40000 + 32 * i),
                     i);
        p.sync();
        const Cycles t0 = p.now();
        const int n = 64;
        // Alternating destinations: every put pays the annex
        // set-up, like compiled code with unknown pointers.
        for (int i = 0; i < n; ++i)
            p.putU64(GlobalAddr::make(1 + (i % 2), 0x41000 + 32 * i),
                     i);
        const double ns = cyclesToNs(p.now() - t0) / n;
        EXPECT_NEAR(ns, 300.0, 80.0) << "§5.4 average put latency";
        p.sync();
        co_return;
    });
}

TEST_F(GetPutTest, PutsToManyDestinations)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            for (PeId dst = 1; dst < 4; ++dst)
                p.putU64(GlobalAddr::make(dst, 0x50000),
                         1000 + dst);
            p.sync();
        }
        co_return;
    });
    for (PeId dst = 1; dst < 4; ++dst)
        EXPECT_EQ(m.node(dst).storage().readU64(0x50000), 1000u + dst);
}

TEST_F(GetPutTest, LocalGetAndPut)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 1) {
            p.putU64(GlobalAddr::make(1, 0x60000), 5);
            p.sync();
            p.getU64(GlobalAddr::make(1, 0x60000), 0x60100);
            p.sync();
            EXPECT_EQ(p.node().core().loadU64(0x60100), 5u);
        }
        co_return;
    });
}

TEST_F(GetPutTest, SyncIsIdempotent)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.sync();
            p.putU64(GlobalAddr::make(1, 0x70000), 1);
            p.sync();
            p.sync();
        }
        co_return;
    });
    EXPECT_EQ(m.node(1).storage().readU64(0x70000), 1u);
}

TEST_F(GetPutTest, GetStatisticsCount)
{
    probes::PerfCounters ctr;
    m.node(0).shell().setObservability(&ctr, nullptr);
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.getU64(GlobalAddr::make(1, 0x30000), 0x10000);
            p.putU64(GlobalAddr::make(1, 0x40000), 1);
            p.sync();
        }
        co_return;
    });
    EXPECT_EQ(ctr.prefetchIssues, 1u) << "one get";
    EXPECT_EQ(ctr.remoteWriteLines, 1u) << "one put";
}

TEST(GetThenBulkGet, EachLandsInItsOwnTarget)
{
    // A bulk get below the BLT crossover pops the prefetch FIFO it
    // shares with split-phase gets; the outstanding get must be
    // popped into its own target first (§5.4), not swapped into the
    // transfer.
    Machine m{MachineConfig::t3d(2)};
    const Addr a = 0x30000, b = 0x30100;
    m.node(1).storage().writeU64(a, 111);
    m.node(1).storage().writeU64(b, 222);
    m.node(1).storage().writeU64(b + 8, 333);
    const Addr x = 0x20000, y = 0x20100;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.getU64(GlobalAddr::make(1, a), x);
            p.bulkGet(y, GlobalAddr::make(1, b), 16);
            p.sync();
            auto &core = p.node().core();
            EXPECT_EQ(core.loadU64(x), 111u);
            EXPECT_EQ(core.loadU64(y), 222u);
            EXPECT_EQ(core.loadU64(y + 8), 333u);
        }
        co_return;
    });
}

} // namespace
