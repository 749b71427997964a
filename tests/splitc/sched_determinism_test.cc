/**
 * @file
 * Scheduler determinism / stress tests.
 *
 * The SPMD executor is a conservative lowest-clock-first discrete
 * event scheduler; its internals (ready queue, wakeup bookkeeping)
 * are host-speed machinery and MUST NOT affect simulated timing.
 * These tests pin that invariant three ways:
 *
 *  1. identical runs produce bit-identical per-PE finish times;
 *  2. finish times match golden values recorded from the seed
 *     implementation (the O(P)-scan scheduler), so any scheduler
 *     rewrite that shifts model time fails loudly;
 *  3. stress shapes — every PE parked in store_sync / barrier /
 *     message-wait at once — exercise the wakeup path where an
 *     indexed scheduler is most tempted to cut corners; the
 *     non-power-of-two PE counts (48, 100) leave the barrier radix
 *     tree with partial leaf groups and partial upper levels.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "em3d/em3d.hh"
#include "machine/machine.hh"
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

// ---------------------------------------------------------------------
// Fig. 9-style EM3D configs
// ---------------------------------------------------------------------

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

TEST(SchedDeterminism, Em3dRunTwiceIdentical)
{
    for (std::uint32_t pes : {4u, 8u}) {
        for (em3d::Version v :
             {em3d::Version::Get, em3d::Version::Put,
              em3d::Version::Bulk}) {
            const auto a = em3d::run(smallEm3d(), v, pes);
            const auto b = em3d::run(smallEm3d(), v, pes);
            EXPECT_EQ(a.elapsed, b.elapsed)
                << em3d::versionName(v) << " at " << pes << " PEs";
            EXPECT_EQ(a.checksum, b.checksum)
                << em3d::versionName(v) << " at " << pes << " PEs";
        }
    }
}

TEST(SchedDeterminism, Em3dMatchesSeedGolden)
{
    // Elapsed model cycles recorded from the seed scheduler
    // (pre-optimization). A change here means an optimization moved
    // simulated time — forbidden.
    struct Golden
    {
        std::uint32_t pes;
        em3d::Version version;
        Cycles elapsed;
    };
    const Golden goldens[] = {
        {4, em3d::Version::Get, 40815},
        {4, em3d::Version::Bulk, 38400},
        {8, em3d::Version::Put, 39527},
    };
    for (const auto &g : goldens) {
        const auto r = em3d::run(smallEm3d(), g.version, g.pes);
        EXPECT_EQ(r.elapsed, g.elapsed)
            << em3d::versionName(g.version) << " at " << g.pes
            << " PEs";
    }
}

// ---------------------------------------------------------------------
// store_sync-driven ghost push (the paper's Put pattern, written
// directly against store/store_sync so the wakeup path is on the
// critical path of every iteration)
// ---------------------------------------------------------------------

std::vector<Cycles>
runStorePush(std::uint32_t pes, int iters)
{
    Machine m(MachineConfig::t3d(pes));
    constexpr Addr valsBase = 0x40000;
    constexpr Addr ghostBase = 0x50000;
    constexpr int wordsPerNeighbor = 4;
    constexpr std::uint32_t neighbors = 2;

    return runSpmd(m, [&](Proc &p) -> ProcTask {
        auto &core = p.node().core();
        for (int it = 0; it < iters; ++it) {
            // Produce this step's values.
            for (int k = 0; k < wordsPerNeighbor; ++k) {
                core.storeU64(valsBase + Addr(k) * 8,
                              (std::uint64_t(p.pe()) << 32) ^
                                  std::uint64_t(it * 31 + k));
            }
            // Push them into two downstream PEs' ghost regions.
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
            // Wait for our own ghosts (pushed by two upstream PEs).
            co_await p.storeSync(neighbors * wordsPerNeighbor * 8);
            // Consume: touch every ghost word.
            std::uint64_t acc = 0;
            for (std::uint32_t g = 0;
                 g < neighbors * wordsPerNeighbor; ++g)
                acc ^= core.loadU64(ghostBase + Addr(g) * 8);
            core.storeU64(valsBase + 0x100, acc);
            p.compute(40 + (p.pe() % 5) * 7); // skewed compute phase
            co_await p.barrier();
        }
        co_return;
    });
}

TEST(SchedDeterminism, StorePushFinishTimes)
{
    // Golden finish-time hashes: 4-32 PEs (3 iterations) recorded
    // from the seed scheduler, the non-power-of-two 48/100-PE shapes
    // (2 iterations) from the min-heap scheduler.
    struct Golden
    {
        std::uint32_t pes;
        int iters;
        std::uint64_t hash;
    };
    const Golden goldens[] = {
        {4, 3, 6639824912095917541ull},
        {8, 3, 8075835568684726093ull},
        {16, 3, 888021799176107349ull},
        {32, 3, 12136788156465987205ull},
        {48, 2, 5666876705388027877ull},
        {100, 2, 5307398628184579333ull},
    };
    for (const auto &g : goldens) {
        const auto first = runStorePush(g.pes, g.iters);
        const auto second = runStorePush(g.pes, g.iters);
        ASSERT_EQ(first.size(), g.pes);
        EXPECT_EQ(first, second) << "at " << g.pes << " PEs";
        EXPECT_EQ(hash::fnv1aWords(first), g.hash)
            << "at " << g.pes << " PEs";
    }
}

// ---------------------------------------------------------------------
// Many-waiters stress shapes
// ---------------------------------------------------------------------

/** Every PE but 0 parks in store_sync at time ~0; PE 0 computes for
 *  a long stretch, then feeds them all. Exercises mass wakeup from
 *  one producer's resume. */
std::vector<Cycles>
runAllParkedInStoreSync(std::uint32_t pes)
{
    Machine m(MachineConfig::t3d(pes));
    constexpr Addr ghostBase = 0x50000;

    return runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.compute(50000); // everyone else parks first
            for (PeId dst = 1; dst < p.procs(); ++dst) {
                for (int k = 0; k < 2; ++k)
                    p.storeU64(GlobalAddr::make(
                                   dst, ghostBase + Addr(k) * 8),
                               dst * 1000 + k);
            }
        } else {
            co_await p.storeSync(16);
            EXPECT_EQ(p.node().core().loadU64(ghostBase),
                      std::uint64_t(p.pe()) * 1000);
        }
        co_await p.barrier();
        co_return;
    });
}

TEST(SchedDeterminism, AllParkedInStoreSync)
{
    const std::uint64_t golden32 = 18352149539983555205ull;
    const auto first = runAllParkedInStoreSync(32);
    const auto second = runAllParkedInStoreSync(32);
    EXPECT_EQ(first, second);
    EXPECT_EQ(hash::fnv1aWords(first), golden32);
}

/** Every PE but 0 parks waiting for a user-level message. */
std::vector<Cycles>
runAllParkedInMessageWait(std::uint32_t pes)
{
    Machine m(MachineConfig::t3d(pes));
    return runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.compute(20000);
            for (PeId dst = 1; dst < p.procs(); ++dst)
                p.sendMessage(dst, {dst, 7, 8, 9});
        } else {
            co_await p.waitMessage();
            const auto msg = p.takeMessage(false);
            EXPECT_EQ(msg.words[0], p.pe());
        }
        co_await p.barrier();
        co_return;
    });
}

TEST(SchedDeterminism, AllParkedInMessageWait)
{
    const std::uint64_t golden16 = 11895035035132885093ull;
    const auto first = runAllParkedInMessageWait(16);
    const auto second = runAllParkedInMessageWait(16);
    EXPECT_EQ(first, second);
    EXPECT_EQ(hash::fnv1aWords(first), golden16);
}

/** Every PE parks in the barrier with skewed arrival order (highest
 *  PE arrives first). */
std::vector<Cycles>
runSkewedBarrier(std::uint32_t pes)
{
    Machine m(MachineConfig::t3d(pes));
    return runSpmd(m, [&](Proc &p) -> ProcTask {
        for (int round = 0; round < 4; ++round) {
            p.compute((p.procs() - p.pe()) * 97 + round * 13);
            co_await p.barrier();
        }
        co_return;
    });
}

TEST(SchedDeterminism, SkewedBarrierWaves)
{
    struct Golden
    {
        std::uint32_t pes;
        std::uint64_t hash;
    };
    const Golden goldens[] = {
        {32, 6806815936650454565ull},
        {48, 8393293314537947557ull},
        {100, 18083423827347423621ull},
    };
    for (const auto &g : goldens) {
        const auto first = runSkewedBarrier(g.pes);
        const auto second = runSkewedBarrier(g.pes);
        ASSERT_EQ(first.size(), g.pes);
        EXPECT_EQ(first, second) << "at " << g.pes << " PEs";
        EXPECT_EQ(hash::fnv1aWords(first), g.hash)
            << "at " << g.pes << " PEs";
    }
}

} // namespace
