/**
 * @file
 * Tests of the shared-memory Active-Message layer (§7.4): deposit /
 * poll / dispatch correctness, the measured cost bands (~2.9 us
 * deposit, ~1.5 us dispatch), and ordering.
 */

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

constexpr std::uint64_t tagAdd = 20;

TEST(Am, DepositAndDispatch)
{
    Machine m(MachineConfig::t3d(2));
    std::uint64_t sum = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        p.registerAmHandler(
            tagAdd, [&](Proc &, const std::array<std::uint64_t, 4> &a) {
                sum += a[0] + a[1];
            });
        if (p.pe() == 0) {
            p.amDeposit(1, tagAdd, {10, 20, 0, 0});
        } else {
            co_await p.amWait();
            EXPECT_TRUE(p.amPoll());
        }
        co_return;
    });
    EXPECT_EQ(sum, 30u);
}

TEST(Am, MultipleDepositsDispatchInOrder)
{
    Machine m(MachineConfig::t3d(2));
    std::vector<std::uint64_t> seen;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        p.registerAmHandler(
            tagAdd, [&](Proc &, const std::array<std::uint64_t, 4> &a) {
                seen.push_back(a[0]);
            });
        if (p.pe() == 0) {
            for (int i = 0; i < 5; ++i)
                p.amDeposit(1, tagAdd,
                            {std::uint64_t(i), 0, 0, 0});
            co_await p.barrier();
        } else {
            co_await p.barrier();
            while (p.amPoll()) {
            }
        }
        co_return;
    });
    ASSERT_EQ(seen.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(seen[i], std::uint64_t(i));
}

TEST(Am, DepositCostNear3us)
{
    Machine m(MachineConfig::t3d(2));
    double us = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        p.registerAmHandler(
            tagAdd,
            [](Proc &, const std::array<std::uint64_t, 4> &) {});
        if (p.pe() == 0) {
            p.amDeposit(1, tagAdd, {1, 2, 3, 4}); // warm
            const Cycles t0 = p.now();
            p.amDeposit(1, tagAdd, {1, 2, 3, 4});
            us = cyclesToUs(p.now() - t0);
        }
        co_return;
    });
    EXPECT_NEAR(us, 2.9, 0.8) << "§7.4 deposit cost";
}

TEST(Am, DispatchCostNear1_5us)
{
    Machine m(MachineConfig::t3d(2));
    double us = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        p.registerAmHandler(
            tagAdd,
            [](Proc &, const std::array<std::uint64_t, 4> &) {});
        if (p.pe() == 0) {
            p.amDeposit(1, tagAdd, {1, 2, 3, 4});
            co_await p.barrier();
        } else {
            co_await p.barrier();
            const Cycles t0 = p.now();
            EXPECT_TRUE(p.amPoll());
            us = cyclesToUs(p.now() - t0);
        }
        co_return;
    });
    EXPECT_NEAR(us, 1.5, 0.7) << "§7.4 dispatch + access cost";
}

TEST(Am, AmIsFarCheaperThanHardwareMessages)
{
    // The §7.4 argument for building messages from shared-memory
    // primitives: the hardware path costs a 25 us interrupt.
    Machine m(MachineConfig::t3d(2));
    double am_us = 0, msg_us = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        p.registerAmHandler(
            tagAdd,
            [](Proc &, const std::array<std::uint64_t, 4> &) {});
        if (p.pe() == 0) {
            p.amDeposit(1, tagAdd, {1, 0, 0, 0});
            p.sendMessage(1, {2, 0, 0, 0});
            co_await p.barrier();
        } else {
            co_await p.barrier();
            Cycles t0 = p.now();
            p.amPoll();
            am_us = cyclesToUs(p.now() - t0);
            t0 = p.now();
            co_await p.waitMessage();
            p.takeMessage(false);
            msg_us = cyclesToUs(p.now() - t0);
        }
        co_return;
    });
    EXPECT_LT(am_us * 5, msg_us);
}

TEST(Am, PollReturnsFalseWhenEmpty)
{
    Machine m(MachineConfig::t3d(2));
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 1) {
            EXPECT_FALSE(p.amPoll());
        }
        co_return;
    });
}

TEST(Am, WrapAroundQueue)
{
    // More deposits than queue slots, drained in phases.
    Machine m(MachineConfig::t3d(2));
    int handled = 0;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        p.registerAmHandler(
            tagAdd,
            [&](Proc &, const std::array<std::uint64_t, 4> &) {
                ++handled;
            });
        const int total = 320; // wraps the 256-slot queue
        if (p.pe() == 0) {
            for (int i = 0; i < total; ++i) {
                p.amDeposit(1, tagAdd, {std::uint64_t(i), 0, 0, 0});
                if ((i + 1) % 32 == 0)
                    co_await p.barrier(); // let the receiver drain
            }
            co_await p.barrier();
        } else {
            for (int b = 0; b < total / 32; ++b) {
                co_await p.barrier();
                while (p.amPoll()) {
                }
            }
            co_await p.barrier();
            while (p.amPoll()) {
            }
        }
        co_return;
    });
    EXPECT_EQ(handled, 320);
}

TEST(Am, OverflowSpillsToOverflowRing)
{
    MachineConfig mc = MachineConfig::t3d(2);
    mc.observe.counters = true;
    Machine m(mc);
    splitc::SplitcConfig cfg;
    cfg.amQueueSlots = 4;
    int handled = 0;
    runSpmd(
        m,
        [&](Proc &p) -> ProcTask {
            p.registerAmHandler(
                tagAdd,
                [&](Proc &, const std::array<std::uint64_t, 4> &) {
                    ++handled;
                });
            if (p.pe() == 0) {
                // Ten deposits into a 4-slot queue while the consumer
                // is parked at the barrier: six reroute to the DRAM
                // overflow ring instead of aborting the run.
                for (int i = 0; i < 10; ++i)
                    p.amDeposit(1, tagAdd, {std::uint64_t(i), 0, 0, 0});
                co_await p.barrier();
            } else {
                co_await p.barrier();
                while (p.amPoll()) {
                }
            }
            co_return;
        },
        cfg);
    EXPECT_EQ(handled, 10);
    EXPECT_EQ(m.node(0).counters().amOverflows, 6u);
}

TEST(Am, OverflowDrainPaysAnInterruptPerSpilledMessage)
{
    // Same flood, measured: the receiver's drain of a spilled
    // message costs amOverflowDrainCycles more than an in-queue one.
    Machine m(MachineConfig::t3d(2));
    splitc::SplitcConfig cfg;
    cfg.amQueueSlots = 4;
    Cycles inQueue = 0, spilled = 0;
    runSpmd(
        m,
        [&](Proc &p) -> ProcTask {
            p.registerAmHandler(
                tagAdd,
                [](Proc &, const std::array<std::uint64_t, 4> &) {});
            if (p.pe() == 0) {
                for (int i = 0; i < 5; ++i)
                    p.amDeposit(1, tagAdd, {std::uint64_t(i), 0, 0, 0});
                co_await p.barrier();
            } else {
                co_await p.barrier();
                // Tickets 0..3 sit in the primary queue, ticket 4 in
                // the overflow ring. Polls 2..4 are steady-state
                // in-queue dispatches; poll 5 recovers the spill.
                p.amPoll();
                Cycles t0 = p.now();
                p.amPoll();
                inQueue = p.now() - t0;
                p.amPoll();
                p.amPoll();
                t0 = p.now();
                p.amPoll();
                spilled = p.now() - t0;
            }
            co_return;
        },
        cfg);
    // Tolerance absorbs cache-geometry differences between the two
    // measured polls (different slots miss a different number of
    // lines); the 3750-cycle interrupt dominates.
    EXPECT_NEAR(double(spilled) - double(inQueue),
                double(cfg.amOverflowDrainCycles), 100.0);
}

TEST(Am, InterleavedFloodDispatchesInTicketOrderLosingNothing)
{
    // Regression for the overflow-ring misorder: spill tickets 4..8
    // while letting the receiver drain one message mid-flood. A
    // positional (flag-probe) reroute would let a later ticket claim
    // the freed primary slot ahead of the older spilled messages,
    // dispatch it out of order and strand a spill forever; the
    // counter-routed ring must deliver all nine in ticket order.
    Machine m(MachineConfig::t3d(2));
    splitc::SplitcConfig cfg;
    cfg.amQueueSlots = 4;
    std::vector<std::uint64_t> seen;
    runSpmd(
        m,
        [&](Proc &p) -> ProcTask {
            p.registerAmHandler(
                tagAdd,
                [&](Proc &, const std::array<std::uint64_t, 4> &a) {
                    seen.push_back(a[0]);
                });
            if (p.pe() == 0) {
                for (int i = 0; i < 5; ++i) // ticket 4 spills
                    p.amDeposit(1, tagAdd, {std::uint64_t(i), 0, 0, 0});
                co_await p.barrier();
                co_await p.barrier(); // receiver dispatched ticket 0
                for (int i = 5; i < 9; ++i) // all forced to the ring
                    p.amDeposit(1, tagAdd, {std::uint64_t(i), 0, 0, 0});
                co_await p.barrier();
            } else {
                co_await p.barrier();
                EXPECT_TRUE(p.amPoll()); // frees primary slot 0
                co_await p.barrier();
                co_await p.barrier();
                while (p.amPoll()) {
                }
            }
            co_return;
        },
        cfg);
    ASSERT_EQ(seen.size(), 9u);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i) << "ticket order";
}

TEST(Am, OverflowExhaustionIsDiagnosed)
{
    detail::setThrowOnError(true);
    Machine m(MachineConfig::t3d(2));
    splitc::SplitcConfig cfg;
    cfg.amQueueSlots = 4;
    cfg.amOverflowSlots = 4;
    EXPECT_THROW(
        runSpmd(
            m,
            [&](Proc &p) -> ProcTask {
                p.registerAmHandler(
                    tagAdd,
                    [](Proc &,
                       const std::array<std::uint64_t, 4> &) {});
                if (p.pe() == 0) {
                    // Nine deposits against 4 + 4 slots with a
                    // consumer that never drains: ticket 8 finds both
                    // its primary and its overflow slot occupied.
                    for (int i = 0; i < 9; ++i)
                        p.amDeposit(1, tagAdd,
                                    {std::uint64_t(i), 0, 0, 0});
                }
                co_return;
            },
            cfg),
        std::runtime_error);
    detail::setThrowOnError(false);
}

} // namespace
