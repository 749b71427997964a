/**
 * @file
 * End-to-end task-graph execution goldens: one DAG exercising every
 * lowered mechanism (local, store, put, get, blt, am, message) must
 * produce bit-identical makespan, finish hash and value checksum on
 * every run, with tracing enabled or not, and so must a fan-in of
 * several sender PEs into one receiver under every push mechanism.
 */

#include <gtest/gtest.h>

#include <string>

#include "probes/counters.hh"
#include "taskgraph/graph.hh"
#include "taskgraph/lower.hh"
#include "taskgraph/run.hh"

using namespace t3dsim;
using namespace t3dsim::taskgraph;

namespace
{

/** Three supersteps on 8 PEs; edge sizes chosen so auto lowering
 *  covers store/put/get/blt and explicit mechs cover am/message,
 *  plus one same-PE local edge. */
const char *kAllMechanisms = R"({
    "name": "all-mechanisms",
    "tasks": [
        {"id": "t0", "pe": 0, "cycles": 120, "flops": 30},
        {"id": "t1", "pe": 1, "cycles": 240},
        {"id": "t2", "pe": 2, "cycles": 60},
        {"id": "t3", "pe": 3, "cycles": 500},
        {"id": "t4", "pe": 4, "cycles": 90},
        {"id": "t5", "pe": 5, "cycles": 90},
        {"id": "t6", "pe": 6, "cycles": 90},
        {"id": "t7", "pe": 7, "cycles": 90},
        {"id": "tl", "pe": 0, "cycles": 40},
        {"id": "sink", "pe": 2, "cycles": 10}
    ],
    "edges": [
        {"src": "t0", "dst": "t4", "bytes": 64},
        {"src": "t0", "dst": "t5", "bytes": 1024},
        {"src": "t1", "dst": "t6", "bytes": 4096},
        {"src": "t2", "dst": "t7", "bytes": 20000},
        {"src": "t3", "dst": "t4", "bytes": 16, "mech": "am"},
        {"src": "t3", "dst": "t5", "bytes": 16, "mech": "message"},
        {"src": "t0", "dst": "tl", "bytes": 512},
        {"src": "t4", "dst": "sink", "bytes": 40},
        {"src": "t5", "dst": "sink", "bytes": 40},
        {"src": "t6", "dst": "sink", "bytes": 40},
        {"src": "t7", "dst": "sink", "bytes": 40}
    ]
})";

Plan
buildPlan(TaskGraph &g)
{
    std::string err;
    EXPECT_TRUE(TaskGraph::parseText(kAllMechanisms, g, err)) << err;
    EXPECT_TRUE(g.validate(8, err)) << err;
    Plan plan;
    EXPECT_TRUE(Plan::build(g, LowerOptions{}, plan, err)) << err;
    return plan;
}

} // namespace

TEST(TaskGraphRun, CoversEveryMechanism)
{
    TaskGraph g;
    Plan plan = buildPlan(g);
    bool seen[8] = {};
    for (const LoweredEdge &le : plan.loweredEdges)
        seen[static_cast<int>(le.mech)] = true;
    EXPECT_TRUE(seen[static_cast<int>(Mechanism::Local)]);
    EXPECT_TRUE(seen[static_cast<int>(Mechanism::Store)]);
    EXPECT_TRUE(seen[static_cast<int>(Mechanism::Put)]);
    EXPECT_TRUE(seen[static_cast<int>(Mechanism::Get)]);
    EXPECT_TRUE(seen[static_cast<int>(Mechanism::Blt)]);
    EXPECT_TRUE(seen[static_cast<int>(Mechanism::Am)]);
    EXPECT_TRUE(seen[static_cast<int>(Mechanism::Message)]);
}

TEST(TaskGraphRun, BitIdenticalAcrossRuns)
{
    TaskGraph g;
    Plan plan = buildPlan(g);

    const RunResult golden = simulate(g, plan);
    EXPECT_GT(golden.makespanCycles, 0u);
    EXPECT_NE(golden.checksum, 0u);
    EXPECT_EQ(golden.levels, 3u);

    const RunResult again = simulate(g, plan);
    EXPECT_EQ(again.makespanCycles, golden.makespanCycles);
    EXPECT_EQ(again.finishHash, golden.finishHash);
    EXPECT_EQ(again.checksum, golden.checksum);
}

TEST(TaskGraphRun, TracingDoesNotPerturbResults)
{
    TaskGraph g;
    Plan plan = buildPlan(g);

    const RunResult golden = simulate(g, plan);

    RunOptions traced;
    traced.trace = true;
    const RunResult ts = simulate(g, plan, traced);
    EXPECT_EQ(ts.makespanCycles, golden.makespanCycles);
    EXPECT_EQ(ts.finishHash, golden.finishHash);
    EXPECT_EQ(ts.checksum, golden.checksum);

    // Tracing is deterministic too: same event count every run.
    EXPECT_EQ(simulate(g, plan, traced).traceEvents, ts.traceEvents);
    EXPECT_GT(ts.traceEvents, 0u);
}

TEST(TaskGraphRun, UnpinnedGraphIsBitIdenticalAcrossRuns)
{
    const char *text = R"({
        "tasks": [
            {"id": "a", "cycles": 50}, {"id": "b", "cycles": 70},
            {"id": "c", "cycles": 90}, {"id": "d", "cycles": 110},
            {"id": "e", "cycles": 130}, {"id": "f", "cycles": 20}
        ],
        "edges": [
            {"src": "a", "dst": "c", "bytes": 128},
            {"src": "b", "dst": "d", "bytes": 3000},
            {"src": "c", "dst": "e", "bytes": 12000},
            {"src": "d", "dst": "e", "bytes": 96},
            {"src": "a", "dst": "f", "bytes": 8}
        ]
    })";
    TaskGraph g;
    std::string err;
    ASSERT_TRUE(TaskGraph::parseText(text, g, err)) << err;
    ASSERT_TRUE(g.validate(4, err)) << err;
    LowerOptions opt;
    opt.pes = 4;
    Plan plan;
    ASSERT_TRUE(Plan::build(g, opt, plan, err)) << err;

    const RunResult golden = simulate(g, plan);
    const RunResult r = simulate(g, plan);
    EXPECT_EQ(r.makespanCycles, golden.makespanCycles);
    EXPECT_EQ(r.finishHash, golden.finishHash);
    EXPECT_EQ(r.checksum, golden.checksum);
}

namespace
{

/** @p senders tasks s1..sN, task si pinned to PE i with 100 + 37 i
 *  cycles, each sending one 16-byte @p mech edge into task r on PE 0
 *  (10 cycles), lowered for 8 PEs. */
Plan
fanInPlan(TaskGraph &g, int senders, const std::string &mech)
{
    std::string tasks = R"({"id": "r", "pe": 0, "cycles": 10})";
    std::string edges;
    for (int i = 1; i <= senders; ++i) {
        const std::string id = "\"s" + std::to_string(i) + "\"";
        tasks += R"(, {"id": )" + id + R"(, "pe": )" + std::to_string(i) +
                 R"(, "cycles": )" + std::to_string(100 + 37 * i) + "}";
        edges += std::string(i > 1 ? ", " : "") + R"({"src": )" + id +
                 R"(, "dst": "r", "bytes": 16, "mech": ")" + mech + "\"}";
    }
    std::string err;
    EXPECT_TRUE(TaskGraph::parseText(
        R"({"tasks": [)" + tasks + R"(], "edges": [)" + edges + "]}", g,
        err))
        << err;
    EXPECT_TRUE(g.validate(8, err)) << err;
    Plan plan;
    EXPECT_TRUE(Plan::build(g, LowerOptions{}, plan, err)) << err;
    return plan;
}

} // namespace

TEST(TaskGraphRun, FanInAgreesAcrossMechanisms)
{
    // Several sender PEs into one receiver in one level: the one
    // scheduler's order defines the answer, so every mechanism folds
    // the same payloads, and repeated or traced runs repeat it.
    struct Case
    {
        const char *mech;
        Cycles sevenSenderMakespan; ///< pinned golden; 0 = unpinned
    };
    const Case cases[] = {
        {"store", 0}, {"put", 0}, {"am", 2905}, {"message", 27805}};
    for (const int senders : {1, 2, 7}) {
        std::uint64_t checksum = 0;
        for (const Case &c : cases) {
            TaskGraph g;
            const Plan plan = fanInPlan(g, senders, c.mech);
            const RunResult golden = simulate(g, plan);
            if (checksum == 0)
                checksum = golden.checksum;
            EXPECT_EQ(golden.checksum, checksum)
                << senders << " senders, " << c.mech;

            RunOptions traced;
            traced.trace = true;
            for (const RunResult &r :
                 {simulate(g, plan), simulate(g, plan, traced)}) {
                EXPECT_EQ(r.makespanCycles, golden.makespanCycles);
                EXPECT_EQ(r.finishHash, golden.finishHash);
                EXPECT_EQ(r.checksum, golden.checksum);
            }

            if (senders == 7 && c.sevenSenderMakespan != 0) {
                EXPECT_EQ(golden.makespanCycles, c.sevenSenderMakespan)
                    << c.mech;
            }
        }
    }
}
