/**
 * @file
 * The EM3D throughput sweeps' determinism anchors and large-P
 * footprint checks. Simulated cycles and checksums are exact: any
 * drift means modeled timing or the EM3D graph changed. Host-dependent
 * figures (the 4K-PE throughput and the process peak RSS) are only
 * recorded as test properties; CI's large-p-smoke job runs
 * Em3dSweep.WeakScalingTo4KPes alone with --gtest_output=json and
 * asserts their bounds there, where no other test shares the cores.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "model/validate.hh"

namespace
{

using namespace t3dsim;

/** Small enough to finish quickly at 4K PEs, large enough that
 *  per-run setup does not dominate. */
em3d::Config
sweepConfig()
{
    em3d::Config cfg;
    cfg.nodesPerPe = 32;
    cfg.degree = 4;
    cfg.remoteFraction = 0.2;
    cfg.iterations = 2;
    return cfg;
}

/** One pinned sweep point: simulated cycles and checksum, summed
 *  over its versions, at one PE count. */
struct Pin
{
    std::uint32_t pes;
    Cycles simCycles;
    double checksum;
};

/** Peak resident set of this process, in bytes (Linux ru_maxrss is
 *  KiB); 0 if the kernel will not say. */
std::uint64_t
peakRssBytes()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return std::uint64_t(ru.ru_maxrss) * 1024;
}

TEST(Em3dSweep, SixVersionLadderAnchors)
{
    // Every Figure 9 version, summed in ladder order, counters off.
    const apps::App sweep = em3d::app(sweepConfig());
    for (const Pin &a : {Pin{32, 271086, 197494.39245934915},
                         Pin{256, 284147, 8506794.5480866339}}) {
        const std::vector<model::LadderPoint> ladder =
            model::runLadder(sweep, machine::MachineConfig::t3d(a.pes));
        ASSERT_EQ(ladder.size(), 6u);
        EXPECT_TRUE(model::allRungsValid(ladder, std::cerr)) << a.pes;
        Cycles sim_cycles = 0;
        apps::Checksum checksum;
        for (const model::LadderPoint &pt : ladder) {
            sim_cycles += pt.result.elapsed;
            checksum += pt.result.checksum;
        }
        EXPECT_EQ(sim_cycles, a.simCycles) << a.pes;
        EXPECT_EQ(checksum, apps::Checksum(a.checksum)) << a.pes;
    }
}

TEST(Em3dSweep, WeakScalingTo4KPes)
{
    // Fixed per-PE work, growing P, smallest first: gets, puts and
    // bulk transfers, the mechanisms with distinct shell state.
    for (const Pin &row : {Pin{256, 116486, 4253397.274043317},
                           Pin{1024, 117855, 63568705.945569575},
                           Pin{4096, 120376, 998208823.825391}}) {
        Cycles sim_cycles = 0;
        double checksum = 0;
        std::uint64_t modeled_bytes = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (em3d::Version v : {em3d::Version::Get, em3d::Version::Put,
                                em3d::Version::Bulk}) {
            const em3d::Result r = em3d::run(sweepConfig(), v, row.pes);
            sim_cycles += r.elapsed;
            checksum += r.checksum;
            modeled_bytes = std::max(modeled_bytes, r.modeledBytes);
        }
        const std::chrono::duration<double> host_s =
            std::chrono::steady_clock::now() - t0;
        EXPECT_EQ(sim_cycles, row.simCycles) << row.pes;
        EXPECT_EQ(checksum, row.checksum) << row.pes;
        if (row.pes != 4096)
            continue;

        // Fine-chunk regime: an EM3D-loaded PE stays far below the
        // old eager ~69 KB/PE floor.
        EXPECT_LT(double(modeled_bytes) / row.pes, 24 * 1024.0);

        // Host-dependent: CI holds the rate to >= 2.0e8 and the whole
        // process to < 512 MiB.
        RecordProperty("sim_pe_cycles_per_s_4096",
                       double(sim_cycles) * row.pes / host_s.count());
        RecordProperty("peak_rss_bytes", peakRssBytes());
    }
}

} // namespace
