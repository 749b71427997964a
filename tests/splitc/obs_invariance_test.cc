/**
 * @file
 * Observability timing-invariance tests.
 *
 * Counter bumps and trace records are host-side bookkeeping; they
 * read the simulated clocks but must never advance them. These tests
 * pin that invariant: identical programs run with counters + tracing
 * enabled and with everything off must produce bit-identical
 * simulated results — EM3D elapsed cycles and checksums, and per-PE
 * finish times for the scheduler stress shapes whose wakeup paths
 * carry the heaviest instrumentation.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "probes/counters.hh"
#include "sim/hash.hh"
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

/** Machine config with every observability channel on. */
MachineConfig
observedT3d(std::uint32_t pes)
{
    MachineConfig config = MachineConfig::t3d(pes);
    config.observe.counters = true;
    config.observe.trace = true;
    config.observe.tracePath = "/dev/null"; // don't litter the cwd
    return config;
}

em3d::Config
smallEm3d()
{
    em3d::Config cfg;
    cfg.nodesPerPe = 32;
    cfg.degree = 4;
    cfg.remoteFraction = 0.3;
    cfg.iterations = 2;
    return cfg;
}

TEST(ObsInvariance, Em3dIdenticalWithObservabilityOn)
{
    for (std::uint32_t pes : {4u, 8u}) {
        for (em3d::Version v :
             {em3d::Version::Simple, em3d::Version::Get,
              em3d::Version::Put, em3d::Version::Bulk}) {
            const auto off = em3d::run(smallEm3d(), v, pes);
            const auto on =
                em3d::run(smallEm3d(), v, observedT3d(pes));
            EXPECT_EQ(off.elapsed, on.elapsed)
                << em3d::versionName(v) << " at " << pes << " PEs";
            EXPECT_EQ(off.checksum, on.checksum)
                << em3d::versionName(v) << " at " << pes << " PEs";
        }
    }
}

/** The sched_determinism store-push shape: store_sync wakeups,
 *  barriers and the write pipeline all on the critical path. */
std::vector<Cycles>
runStorePush(const MachineConfig &machine_config, int iters)
{
    Machine m(machine_config);
    constexpr Addr valsBase = 0x40000;
    constexpr Addr ghostBase = 0x50000;
    constexpr int wordsPerNeighbor = 4;
    constexpr std::uint32_t neighbors = 2;

    return runSpmd(m, [&](Proc &p) -> ProcTask {
        auto &core = p.node().core();
        for (int it = 0; it < iters; ++it) {
            for (int k = 0; k < wordsPerNeighbor; ++k) {
                core.storeU64(valsBase + Addr(k) * 8,
                              (std::uint64_t(p.pe()) << 32) ^
                                  std::uint64_t(it * 31 + k));
            }
            for (std::uint32_t n = 1; n <= neighbors; ++n) {
                const PeId dst = (p.pe() + n) % p.procs();
                for (int k = 0; k < wordsPerNeighbor; ++k) {
                    const std::uint64_t v =
                        core.loadU64(valsBase + Addr(k) * 8);
                    p.storeU64(
                        GlobalAddr::make(
                            dst,
                            ghostBase +
                                Addr(n - 1) * wordsPerNeighbor * 8 +
                                Addr(k) * 8),
                        v);
                }
            }
            co_await p.storeSync(neighbors * wordsPerNeighbor * 8);
            std::uint64_t acc = 0;
            for (std::uint32_t g = 0;
                 g < neighbors * wordsPerNeighbor; ++g)
                acc ^= core.loadU64(ghostBase + Addr(g) * 8);
            core.storeU64(valsBase + 0x100, acc);
            p.compute(40 + (p.pe() % 5) * 7);
            co_await p.barrier();
        }
        co_return;
    });
}

TEST(ObsInvariance, StorePushFinishTimesIdentical)
{
    for (std::uint32_t pes : {8u, 32u}) {
        const auto off = runStorePush(MachineConfig::t3d(pes), 3);
        const auto on = runStorePush(observedT3d(pes), 3);
        EXPECT_EQ(off, on) << "at " << pes << " PEs";
        EXPECT_EQ(hash::fnv1aWords(off), hash::fnv1aWords(on))
            << "at " << pes << " PEs";
    }
}

/** Mixed shell traffic: messages, fetch&inc, AMs, bulk transfers. */
std::vector<Cycles>
runMixedShellTraffic(const MachineConfig &machine_config)
{
    Machine m(machine_config);
    constexpr Addr bufBase = 0x60000;
    constexpr std::size_t bulkBytes = 512;

    return runSpmd(m, [&](Proc &p) -> ProcTask {
        auto &core = p.node().core();
        const PeId right = (p.pe() + 1) % p.procs();

        for (std::size_t k = 0; k < bulkBytes / 8; ++k)
            core.storeU64(bufBase + Addr(k) * 8,
                          p.pe() * 10000 + k);
        co_await p.barrier();

        // BLT-sized pull from the right neighbour.
        p.bulkRead(bufBase + 0x1000,
                   GlobalAddr::make(right, bufBase), bulkBytes);
        // Prefetch-pipeline get + sync.
        p.getU64(GlobalAddr::make(right, bufBase + 8), bufBase + 0x2000);
        p.sync();
        // Fetch&inc and a user-level message downstream.
        p.fetchInc(right, 0);
        p.sendMessage(right, {p.pe(), 1, 2, 3});
        co_await p.waitMessage();
        const auto msg = p.takeMessage(false);
        EXPECT_EQ(msg.words[1], 1u);
        co_await p.barrier();
        co_return;
    });
}

TEST(ObsInvariance, MixedShellTrafficIdentical)
{
    const auto off = runMixedShellTraffic(MachineConfig::t3d(16));
    const auto on = runMixedShellTraffic(observedT3d(16));
    EXPECT_EQ(off, on);
}

TEST(ObsInvariance, ObservedRunActuallyRecorded)
{
    // Guard against the invariance tests passing vacuously because
    // observability never switched on.
    Machine m(observedT3d(4));
    ASSERT_TRUE(m.countersEnabled());
    ASSERT_NE(m.trace(), nullptr);

    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0)
            p.readU64(GlobalAddr::make(1, 0x40000));
        co_await p.barrier();
        co_return;
    });

    EXPECT_GT(m.totalCounters().barriers, 0u);
    EXPECT_GT(m.trace()->eventCount(), 0u);
}

} // namespace
