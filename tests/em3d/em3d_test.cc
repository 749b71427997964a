/**
 * @file
 * Tests of the EM3D application (§8): graph construction invariants,
 * identical numerical results across all six versions, the 0.37
 * us/edge all-local target, and the Figure 9 performance ordering.
 */

#include <bit>
#include <cmath>
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
        EXPECT_EQ(expected_slot, side.ghostCount);
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

/**
 * FNV-1a over every observable output of Graph::build: the five
 * array bases, then per PE and side the edges, fetches, consumer
 * groups, pushes, the producer's stage-order index sequence and the
 * ghost count. Vector lengths are folded in ahead of their elements.
 * A group enters by its size and the stage as one index sequence in
 * stage order, so the value does not depend on how Side stores them.
 */
std::uint64_t
structureFingerprint(const Graph &g)
{
    std::uint64_t h = hash::fnvOffset;
    const auto fold = [&h](std::uint64_t v) { h = hash::fnv1aStep(h, v); };
    for (Addr base : {g.eValsBase, g.hValsBase, g.eGhostBase,
                      g.hGhostBase, g.stageBase})
        fold(base);
    for (const auto &pp : g.perPe) {
        for (const Graph::Side *side : {&pp.e, &pp.h}) {
            fold(side->edges.size());
            for (const auto &edge : side->edges) {
                fold(edge.dstIdx);
                fold(edge.srcPe);
                fold(edge.srcIdx);
                fold(std::bit_cast<std::uint64_t>(edge.weight));
                fold(edge.localValueAddr);
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
            fold(side->ghostCount);
        }
    }
    return h;
}

TEST(Em3dGraph, StructureFingerprint)
{
    // Slot, fetch, push and stage order decide annex churn (§8), so
    // the whole built structure is pinned, not just the checksums it
    // leads to. One fingerprint per (shape, P) folds the fractions
    // {0, 0.2, 1.0} and seeds {42, 7}.
    struct Case
    {
        std::uint32_t nodesPerPe, degree, pes;
        std::uint64_t fingerprint;
    };
    const Case cases[] = {
        {500, 20, 1, 0xed560f216cdaf31dull},
        {500, 20, 2, 0xb50cac70331ca3c5ull},
        {500, 20, 3, 0xcf25c96c7514ad4dull},
        {500, 20, 5, 0xa200b38c22c6d3b8ull},
        {500, 20, 32, 0x946ec578ced55f73ull},
        {1, 3, 1, 0xfc36ecbd2fd723cfull},
        {1, 3, 2, 0x08cb73393ae3477dull},
        {1, 3, 3, 0x68ef44cc7f084c1bull},
        {1, 3, 5, 0xcd772a42a2e03dd7ull},
        {1, 3, 32, 0xe8779d8b2f18924cull},
    };
    for (const Case &c : cases) {
        std::uint64_t h = hash::fnvOffset;
        for (double remote : {0.0, 0.2, 1.0}) {
            for (std::uint64_t seed : {42u, 7u}) {
                Config cfg;
                cfg.nodesPerPe = c.nodesPerPe;
                cfg.degree = c.degree;
                cfg.remoteFraction = remote;
                cfg.seed = seed;
                machine::Machine m(machine::MachineConfig::t3d(c.pes));
                const Graph g = Graph::build(m, cfg);
                h = hash::fnv1aStep(h, structureFingerprint(g));
            }
        }
        EXPECT_EQ(h, c.fingerprint)
            << "shape (" << c.nodesPerPe << "," << c.degree << ") P="
            << c.pes << std::hex << " got 0x" << h;
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
        EXPECT_EQ(a.perPe[1].e.edges[i].srcIdx,
                  b.perPe[1].e.edges[i].srcIdx);
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
