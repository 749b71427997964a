/**
 * @file
 * The apps::App adapters: rung lists follow each app's own ladder
 * order, and a rung run through App::run is the app's own run()
 * field for field.
 */

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "em3d/em3d.hh"

namespace
{

using namespace t3dsim;

TEST(AppSuite, RungsFollowLadderOrder)
{
    const std::vector<apps::App> suite = apps::suite();
    ASSERT_EQ(suite.size(), 3u);
    EXPECT_EQ(suite[0].name, "em3d");
    EXPECT_EQ(suite[1].name, "bsort");
    EXPECT_EQ(suite[2].name, "qcd");

    ASSERT_EQ(suite[0].rungs.size(), std::size(em3d::allVersions));
    for (std::size_t i = 0; i < suite[0].rungs.size(); ++i)
        EXPECT_EQ(suite[0].rungs[i],
                  em3d::versionName(em3d::allVersions[i]));
    for (const apps::App &app : {suite[1], suite[2]}) {
        ASSERT_EQ(app.rungs.size(), std::size(apps::allVariants));
        for (std::size_t i = 0; i < app.rungs.size(); ++i)
            EXPECT_EQ(app.rungs[i],
                      apps::variantName(apps::allVariants[i]))
                << app.name;
    }
}

/** Field-by-field equality of an adapted rung and the direct run. */
template <typename Result>
void
expectSameRun(const apps::RungResult &a, const Result &r, double per_unit,
              apps::Checksum checksum, bool valid)
{
    EXPECT_EQ(a.elapsed, r.elapsed);
    EXPECT_EQ(a.perUnit, per_unit);
    EXPECT_EQ(a.checksum, checksum);
    EXPECT_EQ(a.valid, valid);
    EXPECT_EQ(a.countersValid, r.countersValid);
    EXPECT_TRUE(a.counters == r.counters);
}

TEST(AppSuite, RunMatchesDirectCall)
{
    machine::MachineConfig mc = machine::MachineConfig::t3d(8);
    mc.observe.counters = true;
    // The Get rung of each app: index 3 of EM3D's six, 2 of the five
    // Variant rungs.
    {
        em3d::Config cfg;
        cfg.nodesPerPe = 20;
        cfg.degree = 4;
        const em3d::Result r = em3d::run(cfg, em3d::Version::Get, mc);
        const apps::RungResult a = em3d::app(cfg).run(3, mc, {});
        expectSameRun(a, r, r.usPerEdge, apps::Checksum(r.checksum),
                      true);
    }
    {
        apps::bsort::Config cfg;
        cfg.keysPerPe = 64;
        const apps::bsort::Result r =
            apps::bsort::run(cfg, apps::Variant::Get, mc);
        const apps::RungResult a = apps::bsort::app(cfg).run(2, mc, {});
        expectSameRun(a, r, r.usPerKey, apps::Checksum(r.checksum),
                      r.sorted);
        EXPECT_TRUE(a.valid);
    }
    {
        apps::qcd::Config cfg;
        cfg.lx = cfg.ly = cfg.lz = cfg.lt = 2;
        cfg.sweeps = 1;
        const apps::qcd::Result r =
            apps::qcd::run(cfg, apps::Variant::Get, mc);
        const apps::RungResult a = apps::qcd::app(cfg).run(2, mc, {});
        expectSameRun(a, r, r.usPerSiteUpdate,
                      apps::Checksum(r.checksum), r.converged);
        EXPECT_TRUE(a.valid);
    }
}

} // namespace
