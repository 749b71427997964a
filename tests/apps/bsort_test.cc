/**
 * @file
 * Tests of the BSP sample+radix sort app (docs/APPS.md): plan
 * invariants, sorted output and checksum identity across the full
 * variant ladder — including non-power-of-two PE counts, where the
 * torus is non-cubic and the bucket sizes are uneven — plus counter
 * capture.
 */

#include <gtest/gtest.h>

#include "apps/bsort/bsort.hh"
#include "machine/machine.hh"
#include "probes/counters.hh"

namespace
{

using namespace t3dsim;
using apps::Variant;
using apps::bsort::Config;
using apps::bsort::Plan;
using apps::bsort::Result;

Config
smallConfig()
{
    Config cfg;
    cfg.keysPerPe = 64;
    cfg.oversample = 8;
    return cfg;
}

TEST(BsortPlan, ConservesKeysAtNonPowerOfTwoPes)
{
    machine::Machine m(machine::MachineConfig::t3d(6));
    const Plan plan = Plan::build(m, smallConfig());
    ASSERT_EQ(plan.pes, 6u);
    ASSERT_EQ(plan.splitters.size(), 5u);

    std::uint64_t received = 0;
    for (const auto &pp : plan.perPe) {
        received += pp.recvCount;

        // Stage slots are a permutation of [0, keysPerPe).
        std::vector<bool> hit(plan.config.keysPerPe, false);
        for (std::uint32_t slot : pp.stageSlotOfKey) {
            ASSERT_LT(slot, plan.config.keysPerPe);
            ASSERT_FALSE(hit[slot]);
            hit[slot] = true;
        }

        // Outgoing runs tile the stage exactly.
        std::uint32_t staged = 0;
        PeId last_dst = 0;
        for (const auto &out : pp.outBlocks) {
            EXPECT_EQ(out.stageFirst, staged);
            EXPECT_TRUE(out.dst >= last_dst);
            last_dst = out.dst;
            staged += out.count;
        }
        EXPECT_EQ(staged, plan.config.keysPerPe);

        // Incoming runs tile the receive array exactly.
        std::uint32_t recv = 0;
        for (const auto &in : pp.inBlocks) {
            EXPECT_EQ(in.recvFirst, recv);
            recv += in.count;
        }
        EXPECT_EQ(recv, pp.recvCount);
    }
    EXPECT_EQ(received, 6u * plan.config.keysPerPe);
}

TEST(BsortRun, AllVariantsSortAndAgree)
{
    const Config cfg = smallConfig();
    std::uint64_t checksum = 0;
    bool first = true;
    for (Variant v : apps::allVariants) {
        const Result r = apps::bsort::run(cfg, v, 6);
        EXPECT_TRUE(r.sorted) << apps::variantName(v);
        EXPECT_GT(r.elapsed, 0u) << apps::variantName(v);
        if (first) {
            checksum = r.checksum;
            first = false;
        } else {
            EXPECT_EQ(r.checksum, checksum) << apps::variantName(v);
        }
    }
}

TEST(BsortRun, SortsAtTwelvePes)
{
    const Result r =
        apps::bsort::run(smallConfig(), Variant::Bulk, 12);
    EXPECT_TRUE(r.sorted);
    EXPECT_EQ(r.keysTotal, 12u * 64u);
}

TEST(BsortRun, LadderImprovesOnBlockingRead)
{
    const Config cfg = smallConfig();
    const Result naive =
        apps::bsort::run(cfg, Variant::BlockingRead, 8);
    const Result bulk = apps::bsort::run(cfg, Variant::Bulk, 8);
    EXPECT_LT(bulk.elapsed, naive.elapsed);
}

TEST(BsortRun, CountersCaptureTheExchange)
{
    machine::MachineConfig mc = machine::MachineConfig::t3d(6);
    mc.observe.counters = true;

    const Result ghost =
        apps::bsort::run(smallConfig(), Variant::Ghost, mc);
    const Result off =
        apps::bsort::run(smallConfig(), Variant::Ghost, 6);
    EXPECT_FALSE(off.countersValid);
    // Observability must not perturb the simulated timing.
    EXPECT_EQ(off.elapsed, ghost.elapsed);
    EXPECT_EQ(off.checksum, ghost.checksum);

    ASSERT_TRUE(ghost.countersValid);
    EXPECT_GT(ghost.counters.remoteReads, 0u);
    EXPECT_GT(ghost.counters.barriers, 0u);
}

} // namespace
