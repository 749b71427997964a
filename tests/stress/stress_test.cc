/**
 * @file
 * Unit and smoke tests for the seeded differential stress harness
 * (src/stress/, docs/STRESS.md). The heavyweight 50-seed plain and
 * flood corpora run as the Fuzz.* ctests via the t3d-fuzz binary;
 * these tests pin the generator's determinism and run the
 * differential legs end to end.
 */

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "probes/counters.hh"
#include "stress/differential.hh"
#include "stress/generator.hh"

namespace
{

using namespace t3dsim;
using stress::Op;
using stress::OpKind;
using stress::Plan;
using stress::StressConfig;

StressConfig
smallCfg(std::uint64_t seed)
{
    StressConfig cfg;
    cfg.seed = seed;
    cfg.pes = 4;
    cfg.rounds = 2;
    cfg.opsPerRound = 8;
    return cfg;
}

TEST(StressPlan, SameSeedSameListing)
{
    std::ostringstream a, b;
    Plan::build(smallCfg(42)).print(a);
    Plan::build(smallCfg(42)).print(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_FALSE(a.str().empty());
}

TEST(StressPlan, DifferentSeedsDiffer)
{
    std::ostringstream a, b;
    Plan::build(smallCfg(1)).print(a);
    Plan::build(smallCfg(2)).print(b);
    EXPECT_NE(a.str(), b.str());
}

TEST(StressPlan, NeverTargetsSelfAndRespectsCaps)
{
    StressConfig cfg;
    cfg.seed = 7;
    cfg.pes = 8;
    cfg.rounds = 6;
    cfg.opsPerRound = 24;
    const Plan plan = Plan::build(cfg);
    ASSERT_EQ(plan.rounds.size(), cfg.rounds);

    // Several PEs may send into one receiver in a round: the corpus
    // must actually reach AM and message fan-in.
    bool am_fan_in = false, msg_fan_in = false;
    for (const auto &round : plan.rounds) {
        std::vector<std::uint32_t> ams(cfg.pes, 0), msgs(cfg.pes, 0);
        std::vector<std::set<PeId>> am_senders(cfg.pes),
            msg_senders(cfg.pes);
        for (PeId pe = 0; pe < cfg.pes; ++pe) {
            int blt_gets = 0, blt_puts = 0;
            for (const Op &op : round.ops[pe]) {
                EXPECT_NE(op.target, pe);
                EXPECT_LT(op.target, cfg.pes);
                if (op.kind == OpKind::AmDeposit) {
                    ++ams[op.target];
                    am_senders[op.target].insert(pe);
                }
                if (op.kind == OpKind::SendMsg) {
                    ++msgs[op.target];
                    msg_senders[op.target].insert(pe);
                }
                if (op.kind == OpKind::BltGet)
                    ++blt_gets;
                if (op.kind == OpKind::BltPut)
                    ++blt_puts;
            }
            EXPECT_LE(blt_gets, 1);
            EXPECT_LE(blt_puts, 1);
        }
        for (PeId pe = 0; pe < cfg.pes; ++pe) {
            // Matched-wait accounting must agree with the op lists,
            // and the AM cap keeps the corpus out of the overflow
            // ring (the primary queue holds 256).
            EXPECT_EQ(ams[pe], round.amsIn[pe]);
            EXPECT_EQ(msgs[pe], round.msgsIn[pe]);
            EXPECT_LE(round.amsIn[pe], 32u);
            EXPECT_LE(round.msgsIn[pe], 3u);
            am_fan_in |= am_senders[pe].size() >= 2;
            msg_fan_in |= msg_senders[pe].size() >= 2;
        }
    }
    EXPECT_TRUE(am_fan_in) << "no receiver with two AM senders";
    EXPECT_TRUE(msg_fan_in) << "no receiver with two message senders";
}

TEST(StressPlan, FloodBurstCountedInAmsIn)
{
    StressConfig cfg = smallCfg(9);
    cfg.amFloodDeposits = 24;
    const Plan plan = Plan::build(cfg);

    bool flooded = false;
    for (const auto &round : plan.rounds) {
        std::vector<std::uint32_t> ams(cfg.pes, 0);
        for (PeId pe = 0; pe < cfg.pes; ++pe) {
            for (const Op &op : round.ops[pe]) {
                if (op.kind == OpKind::AmDeposit)
                    ++ams[op.target];
            }
        }
        for (PeId pe = 0; pe < cfg.pes; ++pe) {
            EXPECT_EQ(ams[pe], round.amsIn[pe]);
            flooded |= ams[pe] >= cfg.amFloodDeposits;
        }
    }
    EXPECT_TRUE(flooded) << "every round must carry the flood burst";
}

TEST(StressDifferential, RunIsDeterministic)
{
    const Plan plan = Plan::build(smallCfg(11));
    const auto a = stress::runOnce(plan, true);
    const auto b = stress::runOnce(plan, true);
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.counters, b.counters);

    // Flood seeds: a shrunken primary queue plus a per-round flood
    // burst force deposits through the overflow-ring reroute, the
    // regime the plain corpus's AM cap never reaches. The reroute
    // decision (placement, timing, amOverflows counters) must repeat
    // exactly and survive counters off; finish times and checksums
    // are pinned to goldens.
    struct FloodGolden
    {
        std::uint64_t seed;
        Cycles finish; ///< every PE finishes at the final barrier
        std::uint64_t checksum;
    };
    const FloodGolden goldens[] = {
        {5, 143328, 762837998955498431ull},
        {6, 153071, 4250379266939908813ull},
    };
    for (const FloodGolden &g : goldens) {
        StressConfig cfg = smallCfg(g.seed);
        cfg.amFloodDeposits = 24;
        cfg.amQueueSlots = 8;
        cfg.amOverflowSlots = 64;

        const auto rep = stress::runDifferential(cfg);
        EXPECT_TRUE(rep.pass) << "seed " << g.seed;
        for (const auto &msg : rep.mismatches)
            ADD_FAILURE() << "seed " << g.seed << ": " << msg;
        EXPECT_EQ(rep.reference.finish,
                  std::vector<Cycles>(cfg.pes, g.finish))
            << "seed " << g.seed;
        EXPECT_EQ(rep.reference.checksum, g.checksum) << "seed " << g.seed;

        std::uint64_t overflows = 0;
        for (const auto &ctr : rep.reference.counters)
            overflows += ctr.amOverflows;
        EXPECT_GT(overflows, 0u)
            << "seed " << g.seed << ": flood must enter the ring";
    }
}

TEST(StressDifferential, ChecksumDependsOnSeed)
{
    const auto a = stress::runOnce(Plan::build(smallCfg(1)), false);
    const auto b = stress::runOnce(Plan::build(smallCfg(2)), false);
    EXPECT_NE(a.checksum, b.checksum);
}

TEST(StressSaturate, FloodCompletesWithModeledSpills)
{
    const auto rep = stress::runSaturate();
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.amHandled, rep.amDeposits);
    EXPECT_EQ(rep.msgsReceived, rep.msgsSent);
    EXPECT_GT(rep.amOverflows, 0u) << "flood must enter the ring";
    EXPECT_GT(rep.msgSpills, 0u) << "flood must spill the msg queue";
    EXPECT_GT(rep.receiverFinish, 0u);

    // The counts come from PerfCounters on a machine configured to
    // count: T3DSIM_COUNTERS=0 in the environment changes none.
    setenv("T3DSIM_COUNTERS", "0", 1);
    const auto env0 = stress::runSaturate();
    unsetenv("T3DSIM_COUNTERS");
    EXPECT_TRUE(env0.completed);
    EXPECT_EQ(env0.amOverflows, rep.amOverflows);
    EXPECT_EQ(env0.amHandled, rep.amHandled);
    EXPECT_EQ(env0.msgSpills, rep.msgSpills);
    EXPECT_EQ(env0.msgsReceived, rep.msgsReceived);
    EXPECT_EQ(env0.receiverFinish, rep.receiverFinish);
}

} // namespace
