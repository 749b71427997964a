/**
 * @file
 * Tests of the EM3D application (§8): graph construction invariants,
 * identical numerical results across all six versions, the 0.37
 * us/edge all-local target, and the Figure 9 performance ordering.
 */

#include <bit>
#include <cmath>
#include <initializer_list>
#include <utility>

#include <gtest/gtest.h>

#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "sim/hash.hh"

namespace
{

using namespace t3dsim;
using em3d::Config;
using em3d::Graph;
using em3d::Version;

Config
smallConfig(double remote)
{
    Config cfg;
    cfg.nodesPerPe = 40;
    cfg.degree = 5;
    cfg.remoteFraction = remote;
    cfg.iterations = 1;
    return cfg;
}

TEST(Em3dGraph, EdgeCounts)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.3));
    for (PeId pe = 0; pe < 4; ++pe) {
        EXPECT_EQ(g.perPe[pe].e.edges.size(), 40u * 5u);
    }
    // Transpose preserves the total edge count.
    std::size_t h_total = 0;
    for (PeId pe = 0; pe < 4; ++pe)
        h_total += g.perPe[pe].h.edges.size();
    EXPECT_EQ(h_total, 4u * 40u * 5u);
    EXPECT_EQ(g.edgesPerPe(), 2u * 40u * 5u);
}

TEST(Em3dGraph, ZeroRemoteFractionHasNoFetches)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.0));
    for (PeId pe = 0; pe < 4; ++pe) {
        EXPECT_TRUE(g.perPe[pe].e.fetches.empty());
        EXPECT_TRUE(g.perPe[pe].h.fetches.empty());
    }
}

TEST(Em3dGraph, GhostSlotsAreGroupedByProducer)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.6));
    for (PeId pe = 0; pe < 4; ++pe) {
        const auto &side = g.perPe[pe].e;
        std::uint32_t expected_slot = 0;
        for (const auto &group : side.groups) {
            EXPECT_EQ(group.firstSlot, expected_slot);
            expected_slot += group.count;
            EXPECT_NE(group.srcPe, pe);
        }
        EXPECT_EQ(expected_slot, side.ghostCount());
    }
}

TEST(Em3dGraph, PushesMirrorFetches)
{
    machine::Machine m(machine::MachineConfig::t3d(4));
    Graph g = Graph::build(m, smallConfig(0.5));
    // Total pushes of H values == total E-side fetches.
    std::size_t fetches = 0, pushes = 0;
    for (PeId pe = 0; pe < 4; ++pe) {
        fetches += g.perPe[pe].e.fetches.size();
        pushes += g.perPe[pe].e.pushes.size();
    }
    EXPECT_EQ(fetches, pushes);
}

static_assert(sizeof(em3d::Edge) == 16);

/**
 * FNV-1a over every observable output of Graph::build: the five
 * array bases, then per PE and side the edges, fetches, consumer
 * groups, pushes, the producer's stage-order index sequence and the
 * ghost count. Vector lengths are folded in ahead of their elements.
 * An edge enters as (destination node, producer PE, producer-local
 * index, weight, compute-phase local address), a group by its size
 * and the stage as one index sequence in stage order, so the value
 * does not depend on how Side stores them.
 */
std::uint64_t
structureFingerprint(const Graph &g)
{
    std::uint64_t h = hash::fnvOffset;
    const auto fold = [&h](std::uint64_t v) { h = hash::fnv1aStep(h, v); };
    for (Addr base : {g.eValsBase, g.hValsBase, g.eGhostBase,
                      g.hGhostBase, g.stageBase})
        fold(base);
    for (PeId pe = 0; pe < g.pes; ++pe) {
        const Graph::PerPe &pp = g.perPe[pe];
        for (const Graph::Side *side : {&pp.e, &pp.h}) {
            const Graph::Arrays arrays = g.arrays(side == &pp.e);
            fold(side->edges.size());
            for (std::uint32_t dst = 0; dst < g.config.nodesPerPe; ++dst) {
                for (std::uint32_t k = side->firstEdge[dst];
                     k < side->firstEdge[dst + 1]; ++k) {
                    const em3d::Edge &edge = side->edges[k];
                    fold(dst);
                    fold(edge.srcPe);
                    fold(side->srcIdx(edge, pe));
                    fold(std::bit_cast<std::uint64_t>(edge.weight));
                    fold(arrays.valueAddr(edge, pe));
                }
            }
            fold(side->fetches.size());
            for (const auto &f : side->fetches) {
                fold(f.srcPe);
                fold(f.srcIdx);
                fold(f.ghostSlot);
            }
            fold(side->groups.size());
            for (const auto &group : side->groups) {
                fold(group.srcPe);
                fold(group.firstSlot);
                fold(group.count);
                fold(group.producerStageOffset);
            }
            fold(side->pushes.size());
            for (const auto &push : side->pushes) {
                fold(push.srcIdx);
                fold(push.dstPe);
                fold(push.ghostSlot);
            }
            fold(side->stage.size());
            for (std::uint32_t idx : side->stage)
                fold(idx);
            fold(side->ghostCount());
        }
    }
    return h;
}

/** structureFingerprint folded over @p fractions and seeds {42, 7}. */
std::uint64_t
sweepFingerprint(std::uint32_t nodes_per_pe, std::uint32_t degree,
                 std::uint32_t pes, std::initializer_list<double> fractions)
{
    std::uint64_t h = hash::fnvOffset;
    for (double remote : fractions) {
        for (std::uint64_t seed : {42u, 7u}) {
            Config cfg;
            cfg.nodesPerPe = nodes_per_pe;
            cfg.degree = degree;
            cfg.remoteFraction = remote;
            cfg.seed = seed;
            machine::Machine m(machine::MachineConfig::t3d(pes));
            const Graph g = Graph::build(m, cfg);
            h = hash::fnv1aStep(h, structureFingerprint(g));
        }
    }
    return h;
}

TEST(Em3dGraph, StructureFingerprint)
{
    // Slot, fetch, push and stage order decide annex churn (§8), so
    // the whole built structure is pinned, not just the checksums it
    // leads to. Per (shape, P), one fingerprint folds the fractions
    // {0, 0.2, 1.0} and one the fractions {0.1, 0.4, 0.6, 0.8}, each
    // over seeds {42, 7}: 448 graphs in all, from 1 to 64 PEs.
    struct Case
    {
        std::uint32_t nodesPerPe, degree, pes;
        std::uint64_t ends, middle;
    };
    const Case cases[] = {
        {500, 20, 1, 0xed560f216cdaf31dull, 0xb0cae682fe36eac5ull},
        {500, 20, 2, 0xb50cac70331ca3c5ull, 0x8df9fead307207e1ull},
        {500, 20, 3, 0xcf25c96c7514ad4dull, 0x36db48ef6d1a4311ull},
        {500, 20, 4, 0x2b852a9fb4e011d5ull, 0x0f19f1cf7b352c71ull},
        {500, 20, 5, 0xa200b38c22c6d3b8ull, 0x679eb82dcf6676b8ull},
        {500, 20, 8, 0x929129fd2b670e89ull, 0x2408cb6f10b09ce3ull},
        {500, 20, 32, 0x946ec578ced55f73ull, 0x3567c7c88d673b4aull},
        {500, 20, 64, 0x791d254e27178ddeull, 0x71d8d571d1b21185ull},
        {1, 3, 1, 0xfc36ecbd2fd723cfull, 0x221f453f121f108dull},
        {1, 3, 2, 0x08cb73393ae3477dull, 0x5e4a4d710aa9b632ull},
        {1, 3, 3, 0x68ef44cc7f084c1bull, 0x9f3b3461d1c456d1ull},
        {1, 3, 4, 0xd7b047ea9c1ee1f6ull, 0x7b0597c0299b46abull},
        {1, 3, 5, 0xcd772a42a2e03dd7ull, 0x510a9d1699cc62b5ull},
        {1, 3, 8, 0x2a47591739251ff0ull, 0x4584e1203eb915fcull},
        {1, 3, 32, 0xe8779d8b2f18924cull, 0x1e21828ec83c6fcbull},
        {1, 3, 64, 0x83cba2bd70cc475aull, 0xc4c2fe07a2ebf00dull},
        {40, 5, 1, 0x8fad325287a3a1e3ull, 0x280a000cd187b61dull},
        {40, 5, 2, 0x7110a7e529215f55ull, 0x20905932db7c7fa6ull},
        {40, 5, 3, 0x266602b261fbdfa5ull, 0x16cfa0cf310ec6edull},
        {40, 5, 4, 0x99d57256717fe2dbull, 0x238a4aa35b6b421full},
        {40, 5, 5, 0x3fd3f0b4615cb3b9ull, 0xe6ac266cf14c361eull},
        {40, 5, 8, 0x7855e0daee312b73ull, 0x2051d44faa5fc404ull},
        {40, 5, 32, 0xf6f28e32dd1f9842ull, 0x1214f4724d7139b1ull},
        {40, 5, 64, 0x84b192045d0dc57cull, 0x1abbc18df71f7713ull},
        {32, 4, 1, 0xf7f67993ca7a0609ull, 0xb7438a9b7487dba5ull},
        {32, 4, 2, 0xbbbefb9d61f93511ull, 0x5fbfeded4ffb0a3aull},
        {32, 4, 3, 0x1134afe457d2edddull, 0x3f451847e5144395ull},
        {32, 4, 4, 0xe594d71a82b134c6ull, 0xd4498712e46ceed9ull},
        {32, 4, 5, 0x8e74ec649b5e6361ull, 0x20422acc319dc7dbull},
        {32, 4, 8, 0x56548b9f5e2d9d39ull, 0x4d6b18ea48a742a8ull},
        {32, 4, 32, 0x90c4da1c73101776ull, 0xbf631c10ef8ca668ull},
        {32, 4, 64, 0x40a80d14f681a6c0ull, 0x5ad17df8438e7d92ull},
    };
    for (const Case &c : cases) {
        const std::uint64_t ends = sweepFingerprint(
            c.nodesPerPe, c.degree, c.pes, {0.0, 0.2, 1.0});
        const std::uint64_t middle = sweepFingerprint(
            c.nodesPerPe, c.degree, c.pes, {0.1, 0.4, 0.6, 0.8});
        EXPECT_EQ(ends, c.ends)
            << "shape (" << c.nodesPerPe << "," << c.degree << ") P="
            << c.pes << std::hex << " got 0x" << ends;
        EXPECT_EQ(middle, c.middle)
            << "shape (" << c.nodesPerPe << "," << c.degree << ") P="
            << c.pes << std::hex << " got 0x" << middle;
    }
}

TEST(Em3dGraph, EdgeArraysHoldNoSpareCapacity)
{
    // The edge arrays are most of a Figure 9 graph's host bytes, so
    // both sides are sized exactly, with no growth slack.
    machine::Machine m(machine::MachineConfig::t3d(32));
    Config cfg;
    cfg.remoteFraction = 0.4;
    const Graph g = Graph::build(m, cfg);
    for (PeId pe = 0; pe < 32; ++pe) {
        for (const Graph::Side *side : {&g.perPe[pe].e, &g.perPe[pe].h}) {
            EXPECT_EQ(side->edges.capacity(), side->edges.size())
                << "pe " << pe;
        }
    }
}

TEST(Em3dGraph, SmallMachinesDedupNeighbours)
{
    // Remote producers are the distinct processors among pe +/- 1 and
    // pe +/- 2; on 1, 2, 3 and 5 PEs that set collapses to 0, 1, 2
    // and 4 processors.
    for (const auto &[pes, max_groups] :
         {std::pair{1u, 0u}, {2u, 1u}, {3u, 2u}, {5u, 4u}}) {
        machine::Machine m(machine::MachineConfig::t3d(pes));
        Graph g = Graph::build(m, smallConfig(1.0));
        for (PeId pe = 0; pe < pes; ++pe) {
            const auto &pp = g.perPe[pe];
            for (const Graph::Side *side : {&pp.e, &pp.h}) {
                if (pes == 1) {
                    EXPECT_TRUE(side->fetches.empty());
                    EXPECT_TRUE(side->pushes.empty());
                }
                EXPECT_LE(side->groups.size(), max_groups)
                    << "P=" << pes << " pe " << pe;
                for (const auto &group : side->groups) {
                    const PeId d = (group.srcPe + pes - pe) % pes;
                    EXPECT_TRUE(d == 1 || d == 2 || d == pes - 1 ||
                                d == pes - 2)
                        << "P=" << pes << " pe " << pe << " producer "
                        << group.srcPe;
                }
            }
        }
    }
}

TEST(Em3dGraph, DeterministicForSeed)
{
    machine::Machine m1(machine::MachineConfig::t3d(4));
    machine::Machine m2(machine::MachineConfig::t3d(4));
    Graph a = Graph::build(m1, smallConfig(0.4));
    Graph b = Graph::build(m2, smallConfig(0.4));
    ASSERT_EQ(a.perPe[1].e.edges.size(), b.perPe[1].e.edges.size());
    for (std::size_t i = 0; i < a.perPe[1].e.edges.size(); ++i) {
        EXPECT_EQ(a.perPe[1].e.edges[i].srcPe,
                  b.perPe[1].e.edges[i].srcPe);
        EXPECT_EQ(a.perPe[1].e.edges[i].ref, b.perPe[1].e.edges[i].ref);
    }
}

TEST(Em3dRun, AllVersionsProduceIdenticalResults)
{
    const Config cfg = smallConfig(0.4);
    double reference = 0;
    bool first = true;
    for (Version v : em3d::allVersions) {
        auto result = em3d::run(cfg, v, 4);
        ASSERT_TRUE(std::isfinite(result.checksum));
        if (first) {
            reference = result.checksum;
            first = false;
            EXPECT_NE(reference, 0.0);
        } else {
            EXPECT_DOUBLE_EQ(result.checksum, reference)
                << em3d::versionName(v);
        }
    }
}

TEST(Em3dRun, MultipleIterationsStayConsistent)
{
    Config cfg = smallConfig(0.3);
    cfg.iterations = 3;
    const auto simple = em3d::run(cfg, Version::Simple, 4);
    const auto bulk = em3d::run(cfg, Version::Bulk, 4);
    EXPECT_DOUBLE_EQ(simple.checksum, bulk.checksum);
}

TEST(Em3dRun, AllLocalOptimizedNear037usPerEdge)
{
    // §8: "we reduce the cost of processing an edge to 0.37 usec
    // when all the edges are local" (5.5 MFlops per processor).
    Config cfg;
    cfg.nodesPerPe = 200;
    cfg.degree = 10;
    cfg.remoteFraction = 0.0;
    const auto result = em3d::run(cfg, Version::Bulk, 4);
    EXPECT_NEAR(result.usPerEdge, 0.37, 0.06);
}

TEST(Em3dRun, Figure9OrderingAtHighRemoteFraction)
{
    Config cfg;
    cfg.nodesPerPe = 100;
    cfg.degree = 8;
    cfg.remoteFraction = 0.6;
    double us[6];
    int i = 0;
    for (Version v : em3d::allVersions)
        us[i++] = em3d::run(cfg, v, 8).usPerEdge;

    const double simple = us[0], bundle = us[1], unroll = us[2],
        get = us[3], put = us[4], bulk = us[5];

    EXPECT_GT(simple, bundle) << "ghost caching wins";
    EXPECT_GT(bundle, unroll) << "unrolled compute wins";
    EXPECT_GT(unroll, get) << "pipelined gets win";
    EXPECT_GT(get, put) << "puts have less overhead than gets";
    EXPECT_GT(put, bulk) << "bulk avoids repeated annex set-up";
}

TEST(Em3dRun, RemoteFractionScalesCost)
{
    Config cfg;
    cfg.nodesPerPe = 100;
    cfg.degree = 8;
    double prev = 0;
    for (double remote : {0.0, 0.3, 0.9}) {
        cfg.remoteFraction = remote;
        const auto result = em3d::run(cfg, Version::Simple, 8);
        EXPECT_GT(result.usPerEdge, prev);
        prev = result.usPerEdge;
    }
}

} // namespace
