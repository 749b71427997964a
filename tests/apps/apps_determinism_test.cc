/**
 * @file
 * Determinism pins for the application suite: for every app and
 * every rung, both counter modes must finish at the same simulated
 * cycle with the same output checksum, bit for bit.
 */

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "probes/counters.hh"

namespace
{

using namespace t3dsim;

/** The suite at sizes that run every rung in milliseconds. */
std::vector<apps::App>
tinySuite()
{
    em3d::Config ecfg;
    ecfg.nodesPerPe = 20;
    ecfg.degree = 4;
    apps::bsort::Config bcfg;
    bcfg.keysPerPe = 64;
    apps::qcd::Config qcfg;
    qcfg.lx = qcfg.ly = qcfg.lz = qcfg.lt = 2;
    qcfg.sweeps = 1;
    return {em3d::app(ecfg), apps::bsort::app(bcfg),
            apps::qcd::app(qcfg)};
}

TEST(AppsDeterminism, CountersDoNotPerturbTiming)
{
    machine::MachineConfig on = machine::MachineConfig::t3d(8);
    on.observe.counters = true;
    machine::MachineConfig off = machine::MachineConfig::t3d(8);
    off.observe.counters = false;

    for (const apps::App &app : tinySuite()) {
        for (std::size_t i = 0; i < app.rungs.size(); ++i) {
            const std::string label = app.name + "/" + app.rungs[i];
            const apps::RungResult a = app.run(i, on, {});
            const apps::RungResult b = app.run(i, off, {});
            EXPECT_TRUE(a.countersValid) << label;
            EXPECT_FALSE(b.countersValid) << label;
            EXPECT_EQ(a.elapsed, b.elapsed) << label;
            EXPECT_EQ(a.checksum, b.checksum) << label;
        }
    }
}

} // namespace
