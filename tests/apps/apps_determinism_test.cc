/**
 * @file
 * Determinism pins for the application suite: for both apps, both
 * counter modes must finish at the same simulated cycle with the
 * same output checksum, bit for bit.
 */

#include <gtest/gtest.h>

#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "machine/machine.hh"

namespace
{

using namespace t3dsim;
using apps::Variant;

TEST(AppsDeterminism, CountersDoNotPerturbTiming)
{
    machine::MachineConfig on = machine::MachineConfig::t3d(8);
    on.observe.counters = true;
    machine::MachineConfig off = machine::MachineConfig::t3d(8);
    off.observe.counters = false;

    apps::bsort::Config bcfg;
    bcfg.keysPerPe = 64;
    for (Variant v : apps::allVariants) {
        const auto a = apps::bsort::run(bcfg, v, on);
        const auto b = apps::bsort::run(bcfg, v, off);
        EXPECT_EQ(a.elapsed, b.elapsed) << apps::variantName(v);
        EXPECT_EQ(a.checksum, b.checksum) << apps::variantName(v);
    }

    apps::qcd::Config qcfg;
    qcfg.lx = qcfg.ly = qcfg.lz = qcfg.lt = 2;
    qcfg.sweeps = 1;
    for (Variant v : apps::allVariants) {
        const auto a = apps::qcd::run(qcfg, v, on);
        const auto b = apps::qcd::run(qcfg, v, off);
        EXPECT_EQ(a.elapsed, b.elapsed) << apps::variantName(v);
        EXPECT_EQ(a.checksum, b.checksum) << apps::variantName(v);
    }
}

} // namespace
