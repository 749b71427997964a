/**
 * @file
 * Edge cases and failure injection for the Split-C runtime: resource
 * exhaustion, misuse panics, sub-word remote accesses, atomic swap,
 * typed global pointers.
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
using splitc::GlobalPtr;
using splitc::Proc;
using splitc::ProcTask;
using splitc::runSpmd;

TEST(ProcEdge, AllocatorAlignsAndAdvances)
{
    Machine m(MachineConfig::t3d(2));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            auto a = p.allocLocal(3);
            auto b = p.allocLocal(8, 64);
            EXPECT_EQ(b.local() % 64, 0u);
            EXPECT_GT(b.local(), a.local());
        }
        co_return;
    });
}

TEST(ProcEdge, AllocatorExhaustionPanics)
{
    detail::setThrowOnError(true);
    Machine m(MachineConfig::t3d(2));
    // The node segment is 128 MB.
    EXPECT_THROW(m.node(0).alloc(Addr{1} << 31), std::runtime_error);
    detail::setThrowOnError(false);
}

TEST(ProcEdge, SignalingStoreAcrossLinePanics)
{
    detail::setThrowOnError(true);
    Machine m(MachineConfig::t3d(2));
    EXPECT_THROW(
        runSpmd(m,
                [&](Proc &p) -> ProcTask {
                    if (p.pe() == 0) {
                        // 28 mod 32: an 8-byte store would cross.
                        p.storeU64(GlobalAddr::make(1, 0x1001c), 1);
                    }
                    co_return;
                }),
        std::runtime_error);
    detail::setThrowOnError(false);
}

TEST(ProcEdge, AmDepositToSelfPanics)
{
    detail::setThrowOnError(true);
    Machine m(MachineConfig::t3d(2));
    EXPECT_THROW(
        runSpmd(m,
                [&](Proc &p) -> ProcTask {
                    if (p.pe() == 0)
                        p.amDeposit(0, 20, {1, 2, 3, 4});
                    co_return;
                }),
        std::runtime_error);
    detail::setThrowOnError(false);
}

TEST(ProcEdge, UnknownAmTagPanics)
{
    detail::setThrowOnError(true);
    Machine m(MachineConfig::t3d(2));
    EXPECT_THROW(
        runSpmd(m,
                [&](Proc &p) -> ProcTask {
                    if (p.pe() == 0) {
                        p.amDeposit(1, 999, {0, 0, 0, 0});
                        co_await p.barrier();
                    } else {
                        co_await p.barrier();
                        p.amPoll(); // no handler for 999
                    }
                    co_return;
                }),
        std::runtime_error);
    detail::setThrowOnError(false);
}

TEST(ProcEdge, RemoteSubWordAccess)
{
    Machine m(MachineConfig::t3d(2));
    m.node(1).storage().writeU64(0x30000, 0x8877665544332211ull);
    std::uint8_t byte = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            byte = p.readU8(GlobalAddr::make(1, 0x30005));
            EXPECT_EQ(p.node().loadU32(
                          alpha::makeAnnexedVa(0, 0x0)),
                      0u);
        }
        co_return;
    });
    EXPECT_EQ(byte, 0x66u);
}

TEST(ProcEdge, AtomicSwapThroughRuntime)
{
    Machine m(MachineConfig::t3d(2));
    m.node(1).storage().writeU64(0x30000, 111);
    std::uint64_t old1 = 0, old2 = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            old1 = p.atomicSwap(GlobalAddr::make(1, 0x30000), 222);
            old2 = p.atomicSwap(GlobalAddr::make(1, 0x30000), 333);
        }
        co_return;
    });
    EXPECT_EQ(old1, 111u);
    EXPECT_EQ(old2, 222u);
    EXPECT_EQ(m.node(1).storage().readU64(0x30000), 333u);
}

TEST(ProcEdge, TypedGlobalPointerTraversal)
{
    Machine m(MachineConfig::t3d(4));
    // A remote array walked with a typed pointer.
    for (int i = 0; i < 8; ++i)
        m.node(2).storage().writeU64(0x30000 + 8 * i, 900 + i);
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            auto ptr = GlobalPtr<std::uint64_t>::make(2, 0x30000);
            std::uint64_t sum = 0;
            for (int i = 0; i < 8; ++i)
                sum += p.readU64((ptr + i).addr());
            EXPECT_EQ(sum, 8u * 900 + 28);
        }
        co_return;
    });
}

TEST(ProcEdge, GlobalArithmeticWalksPes)
{
    Machine m(MachineConfig::t3d(4));
    for (PeId pe = 0; pe < 4; ++pe)
        m.node(pe).storage().writeU64(0x30000, 100 + pe);
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            auto ptr = GlobalPtr<std::uint64_t>::make(0, 0x30000);
            std::uint64_t sum = 0;
            for (int i = 0; i < 4; ++i) {
                sum += p.readU64(ptr.addr());
                ptr = ptr.addGlobal(1, p.procs());
            }
            EXPECT_EQ(sum, 100u + 101 + 102 + 103);
        }
        co_return;
    });
}

TEST(ProcEdge, ComputeAdvancesOnlyOwnClock)
{
    Machine m(MachineConfig::t3d(2));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0)
            p.compute(12345);
        co_return;
    });
    // +4 for the end-of-run flush.
    EXPECT_EQ(m.node(0).clock().now(), 12349u);
    EXPECT_EQ(m.node(1).clock().now(), 4u);
}

TEST(ProcEdge, StatisticsAccumulate)
{
    Machine m(MachineConfig::t3d(2));
    probes::PerfCounters ctr;
    m.node(0).shell().setObservability(&ctr, nullptr);
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.storeU64(GlobalAddr::make(1, 0x30000), 1);
            p.storeU64(GlobalAddr::make(1, 0x30020), 2);
        }
        co_return;
    });
    EXPECT_EQ(ctr.remoteWriteLines, 2u) << "two stores, two lines";
    EXPECT_GE(ctr.annexFaults, 1u);
}

} // namespace
