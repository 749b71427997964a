/**
 * @file
 * Task-graph ingestion: schema errors are rejected with typed
 * diagnostics, topological levels and content hashes are stable, and
 * lowering bounds a receiver's Am edges per level by the AM queue.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "taskgraph/graph.hh"
#include "taskgraph/lower.hh"

using namespace t3dsim;
using namespace t3dsim::taskgraph;

namespace
{

TaskGraph
mustParse(const std::string &text)
{
    TaskGraph g;
    std::string err;
    EXPECT_TRUE(TaskGraph::parseText(text, g, err)) << err;
    return g;
}

std::string
parseError(const std::string &text)
{
    TaskGraph g;
    std::string err;
    EXPECT_FALSE(TaskGraph::parseText(text, g, err));
    return err;
}

std::string
validateError(const std::string &text, std::uint32_t pes)
{
    TaskGraph g = mustParse(text);
    std::string err;
    EXPECT_FALSE(g.validate(pes, err));
    return err;
}

const char *kDiamond = R"({
    "name": "diamond",
    "tasks": [{"id": "a", "cycles": 100},
              {"id": "b", "cycles": 200},
              {"id": "c", "cycles": 300},
              {"id": "d", "cycles": 400}],
    "edges": [{"src": "a", "dst": "b", "bytes": 64},
              {"src": "a", "dst": "c", "bytes": 64},
              {"src": "b", "dst": "d", "bytes": 64},
              {"src": "c", "dst": "d", "bytes": 64}]
})";

} // namespace

TEST(TaskGraphParse, AcceptsDiamond)
{
    TaskGraph g = mustParse(kDiamond);
    EXPECT_EQ(g.name, "diamond");
    ASSERT_EQ(g.tasks.size(), 4u);
    ASSERT_EQ(g.edges.size(), 4u);
    EXPECT_EQ(g.tasks[0].id, "a");
    EXPECT_EQ(g.tasks[1].cycles, 200u);
    EXPECT_EQ(g.edges[0].src, 0u);
    EXPECT_EQ(g.edges[0].dst, 1u);
    EXPECT_EQ(g.edges[0].bytes, 64u);
    EXPECT_EQ(g.edges[0].mech, Mechanism::Auto);
}

TEST(TaskGraphParse, RejectsBadJson)
{
    EXPECT_NE(parseError("{\"tasks\": [").find("bad JSON"),
              std::string::npos);
}

TEST(TaskGraphParse, RejectsNonObjectTopLevel)
{
    EXPECT_NE(parseError("[1, 2]").find("top level must be a JSON object"),
              std::string::npos);
}

TEST(TaskGraphParse, RejectsMissingOrEmptyTasks)
{
    EXPECT_NE(parseError("{}").find("'tasks' must be a non-empty array"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"tasks": []})")
                  .find("'tasks' must be a non-empty array"),
              std::string::npos);
}

TEST(TaskGraphParse, RejectsMissingAndDuplicateIds)
{
    EXPECT_NE(parseError(R"({"tasks": [{"cycles": 1}]})")
                  .find("task 0: missing id"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"tasks": [{"id": "a"}, {"id": "a"}]})")
                  .find("duplicate task id 'a'"),
              std::string::npos);
}

TEST(TaskGraphParse, RejectsNonIntegerWeights)
{
    EXPECT_NE(
        parseError(R"({"tasks": [{"id": "a", "cycles": -5}]})")
            .find("'cycles' must be a non-negative integer"),
        std::string::npos);
    EXPECT_NE(
        parseError(R"({"tasks": [{"id": "a", "flops": 1.5}]})")
            .find("'flops' must be a non-negative integer"),
        std::string::npos);
}

TEST(TaskGraphParse, RejectsWeightsPast64Bits)
{
    EXPECT_NE(
        parseError(R"({"tasks": [{"id": "a", "cycles": 1e30}]})")
            .find("'cycles' must be a non-negative integer"),
        std::string::npos);
    EXPECT_NE(parseError(R"({"tasks": [{"id": "a"}, {"id": "b"}],
        "edges": [{"src": "a", "dst": "b",
                   "bytes": 18446744073709551616}]})")
                  .find("edge 0: 'bytes' must be a non-negative integer"),
              std::string::npos);
}

TEST(TaskGraphParse, RejectsDanglingEdgeEndpoints)
{
    const char *missing = R"({"tasks": [{"id": "a"}],
                              "edges": [{"dst": "a"}]})";
    EXPECT_NE(parseError(missing).find("edge 0: missing 'src' task id"),
              std::string::npos);
    const char *unknown = R"({"tasks": [{"id": "a"}],
                              "edges": [{"src": "a", "dst": "zz"}]})";
    EXPECT_NE(parseError(unknown).find("unknown dst task 'zz'"),
              std::string::npos);
}

TEST(TaskGraphParse, RejectsUnknownMechanism)
{
    const char *text = R"({"tasks": [{"id": "a"}, {"id": "b"}],
        "edges": [{"src": "a", "dst": "b", "mech": "rdma"}]})";
    EXPECT_NE(parseError(text).find("unknown mechanism 'rdma'"),
              std::string::npos);
}

TEST(TaskGraphValidate, RejectsOutOfRangePe)
{
    const char *text = R"({"tasks": [{"id": "a", "pe": 9}]})";
    EXPECT_NE(validateError(text, 8).find("pe 9 out of range for 8 PEs"),
              std::string::npos);
}

TEST(TaskGraphValidate, RejectsPePast32Bits)
{
    // Once wrapped to PE 0; now out of range by its own value.
    const char *text = R"({"tasks": [{"id": "a", "pe": 4294967296}]})";
    EXPECT_NE(validateError(text, 2).find(
                  "pe 4294967296 out of range for 2 PEs"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"tasks": [{"id": "a", "pe": 1e30}]})")
                  .find("'pe' must be an integer"),
              std::string::npos);
}

TEST(TaskGraphValidate, RejectsSelfLoop)
{
    const char *text = R"({"tasks": [{"id": "a"}, {"id": "b"}],
        "edges": [{"src": "a", "dst": "a"}]})";
    EXPECT_NE(validateError(text, 8).find("self-loop on task 'a'"),
              std::string::npos);
}

TEST(TaskGraphValidate, RejectsOversizedAmAndMessagePayloads)
{
    const char *am = R"({"tasks": [{"id": "a"}, {"id": "b"}],
        "edges": [{"src": "a", "dst": "b", "bytes": 32, "mech": "am"}]})";
    EXPECT_NE(validateError(am, 8).find("am payload is capped at 24"),
              std::string::npos);
    const char *msg = R"({"tasks": [{"id": "a"}, {"id": "b"}],
        "edges": [{"src": "a", "dst": "b", "bytes": 32,
                   "mech": "message"}]})";
    EXPECT_NE(validateError(msg, 8).find("message payload is capped at 24"),
              std::string::npos);
}

TEST(TaskGraphValidate, RejectsCycles)
{
    const char *text = R"({"tasks": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [{"src": "a", "dst": "b"},
                  {"src": "b", "dst": "c"},
                  {"src": "c", "dst": "a"}]})";
    EXPECT_NE(validateError(text, 8).find("cycle through task"),
              std::string::npos);
}

TEST(TaskGraphValidate, ComputesLongestPathLevels)
{
    TaskGraph g = mustParse(kDiamond);
    std::string err;
    ASSERT_TRUE(g.validate(8, err)) << err;
    EXPECT_EQ(g.tasks[0].level, 0u);
    EXPECT_EQ(g.tasks[1].level, 1u);
    EXPECT_EQ(g.tasks[2].level, 1u);
    EXPECT_EQ(g.tasks[3].level, 2u);
}

TEST(TaskGraphHash, TracksContent)
{
    TaskGraph a = mustParse(kDiamond);
    TaskGraph b = mustParse(kDiamond);
    EXPECT_EQ(a.contentHash(), b.contentHash());
    b.edges[0].bytes = 65;
    EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(Lowering, PicksMechanismBySize)
{
    const char *text = R"({"tasks": [
        {"id": "a", "pe": 0}, {"id": "s", "pe": 1}, {"id": "p", "pe": 2},
        {"id": "g", "pe": 3}, {"id": "b", "pe": 4}, {"id": "l", "pe": 0}],
        "edges": [{"src": "a", "dst": "s", "bytes": 64},
                  {"src": "a", "dst": "p", "bytes": 1024},
                  {"src": "a", "dst": "g", "bytes": 4096},
                  {"src": "a", "dst": "b", "bytes": 65536},
                  {"src": "a", "dst": "l", "bytes": 4096}]})";
    TaskGraph g = mustParse(text);
    std::string err;
    ASSERT_TRUE(g.validate(8, err)) << err;
    Plan plan;
    ASSERT_TRUE(Plan::build(g, LowerOptions{}, plan, err)) << err;
    EXPECT_EQ(plan.loweredEdges[0].mech, Mechanism::Store);
    EXPECT_EQ(plan.loweredEdges[1].mech, Mechanism::Put);
    EXPECT_EQ(plan.loweredEdges[2].mech, Mechanism::Get);
    EXPECT_EQ(plan.loweredEdges[3].mech, Mechanism::Blt);
    EXPECT_EQ(plan.loweredEdges[4].mech, Mechanism::Local);
}

TEST(Lowering, HonorsPinsAndBalancesRest)
{
    const char *text = R"({"tasks": [
        {"id": "a", "pe": 3, "cycles": 10},
        {"id": "b", "cycles": 1000},
        {"id": "c", "cycles": 10}]})";
    TaskGraph g = mustParse(text);
    std::string err;
    ASSERT_TRUE(g.validate(4, err)) << err;
    LowerOptions opt;
    opt.pes = 4;
    Plan plan;
    ASSERT_TRUE(Plan::build(g, opt, plan, err)) << err;
    EXPECT_EQ(plan.placement[0], 3u);
    // Greedy least-loaded: b lands on PE 0, then c avoids it.
    EXPECT_EQ(plan.placement[1], 0u);
    EXPECT_EQ(plan.placement[2], 1u);
}

TEST(Lowering, RejectsAmFanInPastQueueCapacity)
{
    // PEs 1..senders each run `per_sender` tasks with one am edge
    // into task r on PE 0. All of a level's deposits can be
    // undispatched at once, so 256 primary slots + 1024 overflow
    // slots bound a receiver's am edges per level.
    auto lower = [](int senders, int per_sender, std::string &err) {
        std::string tasks = R"({"id": "r", "pe": 0})";
        std::string edges;
        for (int pe = 1; pe <= senders; ++pe) {
            for (int k = 0; k < per_sender; ++k) {
                const std::string id = "\"s" + std::to_string(pe) + "_" +
                                       std::to_string(k) + "\"";
                tasks += R"(, {"id": )" + id + R"(, "pe": )" +
                         std::to_string(pe) + "}";
                edges += std::string(edges.empty() ? "" : ", ") +
                         R"({"src": )" + id +
                         R"(, "dst": "r", "bytes": 8, "mech": "am"})";
            }
        }
        TaskGraph g = mustParse(R"({"tasks": [)" + tasks +
                                R"(], "edges": [)" + edges + "]}");
        LowerOptions opt;
        EXPECT_TRUE(g.validate(opt.pes, err)) << err;
        Plan plan;
        return Plan::build(g, opt, plan, err);
    };
    std::string err;
    for (const auto &[senders, per_sender] :
         {std::pair{1, 1280}, std::pair{7, 182}, std::pair{5, 256}})
        EXPECT_TRUE(lower(senders, per_sender, err)) << err;
    for (const auto &[senders, per_sender] :
         {std::pair{1, 1281}, std::pair{7, 183}}) {
        err.clear();
        EXPECT_FALSE(lower(senders, per_sender, err))
            << senders << " x " << per_sender;
        EXPECT_NE(err.find("am edges into pe 0 at level 0 exceed the "
                           "1280-slot AM queue and overflow ring"),
                  std::string::npos)
            << err;
    }
}

TEST(Lowering, RejectsLayoutPastNodeSegment)
{
    // One task result line on each PE, then one edge: the largest
    // edge that fits ends exactly at the 128 MiB segment.
    constexpr std::uint64_t fits = (std::uint64_t{128} << 20) -
                                   (std::uint64_t{1} << 20) - 32;
    auto lower = [](std::uint64_t bytes, std::string &err) {
        TaskGraph g = mustParse(
            R"({"tasks": [{"id": "a", "pe": 0}, {"id": "b", "pe": 1}],
                "edges": [{"src": "a", "dst": "b", "bytes": )" +
            std::to_string(bytes) + "}]}");
        LowerOptions opt;
        opt.pes = 2;
        EXPECT_TRUE(g.validate(opt.pes, err)) << err;
        Plan plan;
        return Plan::build(g, opt, plan, err);
    };
    std::string err;
    EXPECT_TRUE(lower(fits, err)) << err;
    for (const std::uint64_t bytes :
         {fits + 1, std::uint64_t{200000000}, std::uint64_t{10000000000000},
          std::uint64_t{18446744073709549568u}}) {
        err.clear();
        EXPECT_FALSE(lower(bytes, err)) << bytes;
        EXPECT_NE(err.find("edge 0: layout on pe 0 ends past the "
                           "134217728-byte node segment"),
                  std::string::npos)
            << err;
    }
}

TEST(Lowering, RejectsTaskCostPastBound)
{
    // A chain a -> b of the given cycle counts (and flops on b).
    auto lower = [](const std::string &a, const std::string &b,
                    const std::string &flops, std::string &err) {
        TaskGraph g = mustParse(
            R"({"tasks": [{"id": "a", "cycles": )" + a +
            R"(}, {"id": "b", "cycles": )" + b + R"(, "flops": )" + flops +
            R"(}], "edges": [{"src": "a", "dst": "b"}]})");
        EXPECT_TRUE(g.validate(2, err)) << err;
        LowerOptions opt;
        opt.pes = 2;
        opt.flopCycles = 4;
        Plan plan;
        const bool ok = Plan::build(g, opt, plan, err);
        if (ok) {
            EXPECT_EQ(plan.taskCycles[0] + plan.taskCycles[1],
                      kMaxGraphCycles);
        }
        return ok;
    };
    // Weights travel as doubles: near 2^61 they step by 256.
    const std::string half = std::to_string(kMaxGraphCycles / 2);
    std::string err;
    EXPECT_TRUE(lower(half, std::to_string(kMaxGraphCycles / 2 - 256),
                      "64", err))
        << err;

    // Each 1e19 fits 64 bits, their sum does not: it once wrapped the
    // simulated clock. 1.8e19 + 1e18 predicted 0 cycles through an
    // out-of-range cast.
    for (const auto &[a, b, flops, what] :
         {std::tuple{"1e19", "1e19", "0", "task 0: cost exceeds"},
          std::tuple{"1.8e19", "1e18", "0", "task 0: cost exceeds"},
          std::tuple{"0", "0", "18446744073709549568",
                     "task 1: cost exceeds"},
          std::tuple{half.c_str(), half.c_str(), "1",
                     "task 1: total cost of tasks exceeds"}}) {
        err.clear();
        EXPECT_FALSE(lower(a, b, flops, err)) << a << " " << b;
        EXPECT_NE(err.find(std::string(what) + " 4611686018427387904 "
                           "cycles"),
                  std::string::npos)
            << err;
    }
}

TEST(Lowering, RejectsPlanPastPeLevelBudget)
{
    // A 513-task chain at 65,536 PEs is one level past kMaxPeLevels
    // (512 levels at that size): refused before placement, so no
    // per-PE table or vector was allocated.
    std::string tasks = R"({"id":"t0"})", edges;
    for (int k = 1; k <= 512; ++k) {
        const std::string id = "\"t" + std::to_string(k) + "\"";
        tasks += R"(,{"id":)" + id + "}";
        edges += std::string(k > 1 ? "," : "") + R"({"src":"t)" +
                 std::to_string(k - 1) + R"(","dst":)" + id + "}";
    }
    TaskGraph g =
        mustParse(R"({"tasks":[)" + tasks + R"(],"edges":[)" + edges + "]}");
    LowerOptions opt;
    opt.pes = 65536;
    std::string err;
    ASSERT_TRUE(g.validate(opt.pes, err)) << err;
    ASSERT_EQ(kMaxPeLevels / opt.pes, 512u);
    Plan plan;
    EXPECT_FALSE(Plan::build(g, opt, plan, err));
    EXPECT_EQ(err, "plan of 65536 pes x 513 levels = 33619968 pe-levels "
                   "exceeds the 33554432 pe-level budget");
    EXPECT_TRUE(plan.work.empty());
    EXPECT_TRUE(plan.placement.empty());
    EXPECT_TRUE(plan.taskCycles.empty());
}

TEST(Lowering, AlignsLayoutSpansToCacheLines)
{
    TaskGraph g = mustParse(kDiamond);
    std::string err;
    ASSERT_TRUE(g.validate(8, err)) << err;
    Plan plan;
    ASSERT_TRUE(Plan::build(g, LowerOptions{}, plan, err)) << err;
    for (const LoweredEdge &le : plan.loweredEdges) {
        EXPECT_EQ(le.stagingAddr % 32, 0u);
        EXPECT_EQ(le.bufAddr % 32, 0u);
    }
    for (Addr addr : plan.taskResultAddr)
        EXPECT_EQ(addr % 32, 0u);
}
