/**
 * @file
 * Tests of the QCD lattice relaxation app (docs/APPS.md): every rung
 * of the variant ladder must reproduce the sequential reference
 * sweep bitwise — including non-power-of-two PE counts, where the
 * process grid is non-cubic and some torus dimensions degenerate to
 * 1 or 2 (self- and double-neighbour wrap) — plus counter capture.
 */

#include <gtest/gtest.h>

#include "apps/qcd/qcd.hh"
#include "machine/machine.hh"
#include "probes/counters.hh"

namespace
{

using namespace t3dsim;
using apps::Variant;
using apps::qcd::Config;
using apps::qcd::Plan;
using apps::qcd::Result;

Config
smallConfig()
{
    Config cfg;
    cfg.lx = cfg.ly = cfg.lz = cfg.lt = 2;
    cfg.sweeps = 2;
    return cfg;
}

TEST(QcdPlan, NeighbourTableIsConsistent)
{
    machine::Machine m(machine::MachineConfig::t3d(6));
    const Plan plan = Plan::build(m, smallConfig());
    ASSERT_EQ(plan.pes, 6u);
    EXPECT_EQ(plan.px * plan.py * plan.pz, 6u);
    for (PeId pe = 0; pe < plan.pes; ++pe) {
        // Walking +d then -d from any PE returns home.
        for (std::uint32_t f = 0; f < Plan::numFaces; f += 2) {
            EXPECT_EQ(plan.nbrOf[plan.nbrOf[pe][f]][f + 1], pe);
            EXPECT_EQ(plan.nbrOf[plan.nbrOf[pe][f + 1]][f], pe);
        }
    }
    EXPECT_EQ(plan.nsites, 16u);
    EXPECT_EQ(plan.haloTotal, 6u * 8u);
}

TEST(QcdRun, AllVariantsMatchReferenceBitwise)
{
    const Config cfg = smallConfig();
    std::uint64_t checksum = 0;
    bool first = true;
    for (Variant v : apps::allVariants) {
        const Result r = apps::qcd::run(cfg, v, 6);
        EXPECT_TRUE(r.converged) << apps::variantName(v);
        EXPECT_GT(r.elapsed, 0u) << apps::variantName(v);
        if (first) {
            checksum = r.checksum;
            first = false;
        } else {
            EXPECT_EQ(r.checksum, checksum) << apps::variantName(v);
        }
    }
}

TEST(QcdRun, ConvergesAtTwelvePes)
{
    const Result r = apps::qcd::run(smallConfig(), Variant::Get, 12);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.sitesTotal, 12u * 16u);
}

TEST(QcdRun, LadderImprovesOnBlockingRead)
{
    Config cfg = smallConfig();
    cfg.lx = cfg.ly = cfg.lz = cfg.lt = 4;
    cfg.sweeps = 1;
    const Result naive =
        apps::qcd::run(cfg, Variant::BlockingRead, 8);
    const Result get = apps::qcd::run(cfg, Variant::Get, 8);
    EXPECT_LT(get.elapsed, naive.elapsed);
}

TEST(QcdRun, CountersCaptureTheExchange)
{
    machine::MachineConfig mc = machine::MachineConfig::t3d(6);
    mc.observe.counters = true;

    const Result get = apps::qcd::run(smallConfig(), Variant::Get, mc);
    const Result off = apps::qcd::run(smallConfig(), Variant::Get, 6);
    EXPECT_FALSE(off.countersValid);
    // Observability must not perturb the simulated timing.
    EXPECT_EQ(off.elapsed, get.elapsed);
    EXPECT_EQ(off.checksum, get.checksum);

    ASSERT_TRUE(get.countersValid);
    EXPECT_GT(get.counters.prefetchIssues, 0u);
    EXPECT_GT(get.counters.barriers, 0u);
}

TEST(QcdRun, BulkVariantUsesBulkMachinery)
{
    machine::MachineConfig mc = machine::MachineConfig::t3d(6);
    mc.observe.counters = true;
    Config cfg = smallConfig();
    cfg.sweeps = 1;
    const Result r = apps::qcd::run(cfg, Variant::Bulk, mc);
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.elapsed, 0u);

    ASSERT_TRUE(r.countersValid);
    // Small faces ride the prefetch pipeline, large ones the BLT;
    // either way the bulk path must not fall back to per-word reads.
    EXPECT_GT(r.counters.prefetchIssues + r.counters.bltTransfers, 0u);
}

} // namespace
