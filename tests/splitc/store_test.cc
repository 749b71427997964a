/**
 * @file
 * Tests of signaling stores (§7.1): one-way cost, all_store_sync
 * (bulk-synchronous) and store_sync (message-driven) completion.
 */

#include <bit>
#include <vector>

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

TEST(Store, DataArrives)
{
    Machine m(MachineConfig::t3d(2));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0)
            p.storeU64(GlobalAddr::make(1, 0x30000), 123);
        co_await p.allStoreSync();
        if (p.pe() == 1) {
            EXPECT_EQ(p.node().core().loadU64(0x30000), 123u);
        }
        co_return;
    });
}

TEST(Store, StoresArePipelinedOneWay)
{
    // Stores should cost roughly a put (no ack wait per store).
    Machine m(MachineConfig::t3d(2));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() != 0)
            co_return;
        for (int i = 0; i < 8; ++i) // warm up
            p.storeU64(GlobalAddr::make(1, 0x30000 + 32 * i), i);
        const Cycles t0 = p.now();
        const int n = 64;
        for (int i = 0; i < n; ++i)
            p.storeU64(GlobalAddr::make(1, 0x31000 + 32 * i), i);
        const double per_store = double(p.now() - t0) / n;
        EXPECT_LT(per_store, 60.0)
            << "a store must not pay a round trip";
        co_return;
    });
}

TEST(Store, BlockingWriteIsMuchSlowerThanStore)
{
    Machine m(MachineConfig::t3d(2));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() != 0)
            co_return;
        p.storeU64(GlobalAddr::make(1, 0x30000), 0); // warm
        p.writeU64(GlobalAddr::make(1, 0x38000), 0); // warm

        Cycles t0 = p.now();
        for (int i = 0; i < 16; ++i)
            p.storeU64(GlobalAddr::make(1, 0x30000 + 32 * i), i);
        const double store_c = double(p.now() - t0) / 16;

        t0 = p.now();
        for (int i = 0; i < 16; ++i)
            p.writeU64(GlobalAddr::make(1, 0x38000 + 32 * i), i);
        const double write_c = double(p.now() - t0) / 16;

        EXPECT_LT(store_c * 2.5, write_c)
            << "§7: stores are the most efficient form of "
               "communication";
        co_return;
    });
}

TEST(Store, StoreSyncCountsBytes)
{
    Machine m(MachineConfig::t3d(3));
    int receiver_saw = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 2) {
            // Wait for 16 bytes (two words) from anyone.
            co_await p.storeSync(16);
            receiver_saw = 1;
        } else {
            p.compute(100 * (p.pe() + 1));
            p.storeU64(GlobalAddr::make(2, 0x30000 + 8 * p.pe()),
                       p.pe());
        }
        co_return;
    });
    EXPECT_EQ(receiver_saw, 1);
}

TEST(Store, StoreSyncPhases)
{
    // Two successive phases of 8 bytes each: watermarks must not
    // double-count the first phase's arrival.
    Machine m(MachineConfig::t3d(2));
    std::vector<Cycles> wake_times;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 1) {
            co_await p.storeSync(8);
            wake_times.push_back(p.now());
            co_await p.storeSync(8);
            wake_times.push_back(p.now());
        } else {
            p.storeU64(GlobalAddr::make(1, 0x30000), 1);
            p.compute(50000);
            p.storeU64(GlobalAddr::make(1, 0x30008), 2);
        }
        co_return;
    });
    ASSERT_EQ(wake_times.size(), 2u);
    EXPECT_GT(wake_times[1], wake_times[0] + 40000)
        << "second wait must wait for the second store";
}

TEST(Store, AllStoreSyncDeliversEverything)
{
    Machine m(MachineConfig::t3d(4));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        // All-to-all stores.
        for (PeId dst = 0; dst < p.procs(); ++dst) {
            if (dst != p.pe())
                p.storeU64(GlobalAddr::make(dst, 0x30000 + 8 * p.pe()),
                           100 + p.pe());
        }
        co_await p.allStoreSync();
        for (PeId src = 0; src < p.procs(); ++src) {
            if (src != p.pe()) {
                EXPECT_EQ(p.node().core().loadU64(0x30000 + 8 * src),
                          100u + src);
            }
        }
        co_return;
    });
}

TEST(Store, LocalStoreCountsTowardStoreSync)
{
    Machine m(MachineConfig::t3d(1));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        p.storeU64(GlobalAddr::make(0, 0x30000), 9);
        co_await p.storeSync(8);
        EXPECT_EQ(p.node().core().loadU64(0x30000), 9u);
        co_return;
    });
}

TEST(Store, FloatStore)
{
    Machine m(MachineConfig::t3d(2));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0)
            p.storeF64(GlobalAddr::make(1, 0x30000), 2.5);
        co_await p.allStoreSync();
        co_return;
    });
    EXPECT_DOUBLE_EQ(
        std::bit_cast<double>(m.node(1).storage().readU64(0x30000)),
        2.5);
}

} // namespace
