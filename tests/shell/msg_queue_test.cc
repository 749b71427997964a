/**
 * @file
 * Unit tests for the user-level message queue receive side (§7.3).
 */

#include <gtest/gtest.h>

#include "probes/counters.hh"
#include "shell/msg_queue.hh"
#include "sim/logging.hh"

namespace
{

using namespace t3dsim;
using shell::MessageQueue;
using shell::ShellConfig;

struct MsgQueueTest : ::testing::Test
{
    MsgQueueTest() { q.setObservability(&counters, nullptr, 0); }

    ShellConfig cfg;
    MessageQueue q{cfg};
    probes::PerfCounters counters;

    void
    deliver(Cycles when, std::uint64_t w0)
    {
        std::uint64_t words[4] = {w0, 0, 0, 0};
        q.deliver(when, words);
    }
};

TEST_F(MsgQueueTest, EmptyQueue)
{
    EXPECT_FALSE(q.hasMessage());
    EXPECT_FALSE(q.headArrival().has_value());
    EXPECT_EQ(q.depth(), 0u);
}

TEST_F(MsgQueueTest, DeliverAndDequeue)
{
    deliver(100, 42);
    ASSERT_TRUE(q.hasMessage());
    EXPECT_EQ(q.headArrival().value(), 100u);

    auto [msg, done] = q.dequeue(/*now=*/50, /*handler_mode=*/false);
    EXPECT_EQ(msg.words[0], 42u);
    // Receiver polled before arrival: done = arrival + interrupt.
    EXPECT_EQ(done, 100u + cfg.msgInterruptCycles);
}

TEST_F(MsgQueueTest, LatePollPaysFromNow)
{
    deliver(100, 1);
    auto [msg, done] = q.dequeue(/*now=*/10000, false);
    EXPECT_EQ(done, 10000u + cfg.msgInterruptCycles);
}

TEST_F(MsgQueueTest, HandlerModeAddsDispatchCost)
{
    deliver(0, 1);
    auto [msg, done] = q.dequeue(0, /*handler_mode=*/true);
    EXPECT_EQ(done, cfg.msgInterruptCycles + cfg.msgHandlerCycles);
}

TEST_F(MsgQueueTest, InterruptCostIs25us)
{
    deliver(0, 1);
    auto [msg, done] = q.dequeue(0, false);
    EXPECT_NEAR(cyclesToUs(done), 25.0, 0.1);
}

TEST_F(MsgQueueTest, DeliveryOrderIsByArrival)
{
    deliver(200, 2);
    deliver(100, 1);
    deliver(300, 3);
    auto [m1, d1] = q.dequeue(0, false);
    auto [m2, d2] = q.dequeue(d1, false);
    auto [m3, d3] = q.dequeue(d2, false);
    EXPECT_EQ(m1.words[0], 1u);
    EXPECT_EQ(m2.words[0], 2u);
    EXPECT_EQ(m3.words[0], 3u);
}

TEST_F(MsgQueueTest, DequeueEmptyPanics)
{
    detail::setThrowOnError(true);
    EXPECT_THROW(q.dequeue(0, false), std::runtime_error);
    detail::setThrowOnError(false);
}

TEST_F(MsgQueueTest, DeliveredCounter)
{
    deliver(1, 1);
    deliver(2, 2);
    EXPECT_EQ(q.depth(), 2u);
}

// ---------------------------------------------------------------------
// Capacity / spill path
// ---------------------------------------------------------------------

/** Same queue with a tiny hardware segment so tests can fill it. */
struct MsgQueueSpillTest : MsgQueueTest
{
    MsgQueueSpillTest() { cfg.msgQueueCapacity = 4; }
};

TEST_F(MsgQueueSpillTest, DrainingAnExactlyFullQueueCostsNoSpill)
{
    for (int i = 0; i < 4; ++i)
        deliver(100 * (i + 1), std::uint64_t(i));
    EXPECT_EQ(q.depth(), 4u);
    EXPECT_EQ(counters.msgSpills, 0u);
    EXPECT_EQ(q.spillDepth(), 0u);

    Cycles now = 0;
    for (int i = 0; i < 4; ++i) {
        auto [msg, done] = q.dequeue(now, false);
        EXPECT_EQ(msg.words[0], std::uint64_t(i));
        // At-capacity messages pay exactly the classic interrupt
        // cost: the spill path must not tax them.
        EXPECT_EQ(done,
                  std::max(now, msg.arrival) + cfg.msgInterruptCycles);
        now = done;
    }
    EXPECT_FALSE(q.hasMessage());
}

TEST_F(MsgQueueSpillTest, OverflowSpillsAndChargesDrainCost)
{
    for (int i = 0; i < 6; ++i)
        deliver(100 * (i + 1), std::uint64_t(i));
    EXPECT_EQ(q.depth(), 6u);
    EXPECT_EQ(counters.msgSpills, 2u);
    EXPECT_EQ(q.spillDepth(), 2u);

    Cycles now = 0;
    for (int i = 0; i < 6; ++i) {
        auto [msg, done] = q.dequeue(now, false);
        EXPECT_EQ(msg.words[0], std::uint64_t(i)) << "arrival order";
        Cycles expect =
            std::max(now, msg.arrival) + cfg.msgInterruptCycles;
        if (i >= 4) // the two spilled messages pay the copy-back
            expect += cfg.msgSpillDrainCycles;
        EXPECT_EQ(done, expect) << "message " << i;
        now = done;
    }
    EXPECT_EQ(q.spillDepth(), 0u);
    EXPECT_EQ(counters.msgSpills, 2u) << "historical count survives draining";
}

TEST_F(MsgQueueSpillTest, EarlyArrivalDemotesYoungestToSpill)
{
    // Fill the hardware segment with late arrivals, then deliver an
    // earlier one: it belongs at the head, so the youngest hardware
    // entry (400) is the one demoted to the overflow region.
    for (int i = 0; i < 4; ++i)
        deliver(100 * (i + 1), std::uint64_t(i)); // arrivals 100..400
    deliver(50, 99);
    EXPECT_EQ(q.headArrival().value(), 50u);
    EXPECT_EQ(counters.msgSpills, 1u);

    const std::uint64_t order[5] = {99, 0, 1, 2, 3};
    Cycles now = 0;
    for (int i = 0; i < 5; ++i) {
        auto [msg, done] = q.dequeue(now, false);
        EXPECT_EQ(msg.words[0], order[i]);
        Cycles expect =
            std::max(now, msg.arrival) + cfg.msgInterruptCycles;
        if (msg.words[0] == 3) // the demoted message pays the drain
            expect += cfg.msgSpillDrainCycles;
        EXPECT_EQ(done, expect);
        now = done;
    }
}

TEST_F(MsgQueueSpillTest, RedemotedRefillCountsOneSpillAndOneDrain)
{
    // Fill 4 slots, spill a 5th; dequeue the head so the spilled
    // entry refills into hardware (keeping its marking); then deliver
    // an earlier arrival that demotes it a second time. The spill
    // counter and the drain charge must both stay at one.
    for (int i = 0; i < 5; ++i)
        deliver(10 * (i + 1), std::uint64_t(i)); // arrivals 10..50
    EXPECT_EQ(counters.msgSpills, 1u);
    auto [m0, d0] = q.dequeue(0, false); // 10 out; 50 refills
    EXPECT_EQ(m0.words[0], 0u);
    deliver(5, 99); // demotes the refilled 50 again
    EXPECT_EQ(counters.msgSpills, 1u) << "re-demotion must not double-count";
    EXPECT_EQ(q.spillDepth(), 1u);

    const std::uint64_t order[5] = {99, 1, 2, 3, 4};
    Cycles now = d0;
    for (int i = 0; i < 5; ++i) {
        auto [msg, done] = q.dequeue(now, false);
        EXPECT_EQ(msg.words[0], order[i]) << "position " << i;
        Cycles expect =
            std::max(now, msg.arrival) + cfg.msgInterruptCycles;
        if (msg.words[0] == 4) // the twice-demoted message, once
            expect += cfg.msgSpillDrainCycles;
        EXPECT_EQ(done, expect) << "message " << i;
        now = done;
    }
    EXPECT_EQ(counters.msgSpills, 1u);
}

TEST(MsgQueueConfig, ZeroCapacityIsDiagnosed)
{
    detail::setThrowOnError(true);
    ShellConfig cfg;
    cfg.msgQueueCapacity = 0;
    EXPECT_THROW(MessageQueue{cfg}, std::runtime_error);
    detail::setThrowOnError(false);
}

TEST_F(MsgQueueSpillTest, RefillKeepsInterleavedArrivalOrder)
{
    // Overflow, drain a little, overflow again: the concatenated
    // hardware + spill sequence must always drain by arrival.
    for (int i = 0; i < 5; ++i)
        deliver(10 * (i + 1), std::uint64_t(i)); // 5th spills
    auto [m0, d0] = q.dequeue(0, false);
    EXPECT_EQ(m0.words[0], 0u);
    deliver(5, 100); // earlier than everything still queued
    deliver(60, 5);  // later than everything: spills again

    const std::uint64_t order[6] = {100, 1, 2, 3, 4, 5};
    Cycles now = d0;
    for (int i = 0; i < 6; ++i) {
        auto [msg, done] = q.dequeue(now, false);
        EXPECT_EQ(msg.words[0], order[i]) << "position " << i;
        now = done;
    }
    EXPECT_EQ(q.depth(), 0u);
}

} // namespace
