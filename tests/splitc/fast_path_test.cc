/**
 * @file
 * The blocking store's write-through (AlphaCore::storeU64Mb, which
 * hands the line of a store into an empty write buffer straight to
 * the drain port) is a host-side shortcut only. A seeded op sequence
 * runs on two identical 2-PE machines: one does its blocking writes
 * through Proc::writeU64, the other through the word-at-a-time forms
 * it replaces (store then MB; store then Node::waitRemoteWrites).
 * The other ops of the mix run the same calls on both and leave the
 * write buffer empty or not, and the prefetch FIFO part-full, when a
 * blocking write comes. After every op both machines must agree on
 * the clocks, the storage bytes, the write-buffer and prefetch-FIFO
 * occupancy and every counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "machine/machine.hh"
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

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Local region on PE 0 and remote region on PE 1 (2,048 words
 *  each: twice the 8 KB D-cache, so loads both hit and miss). */
constexpr Addr localBase = 0x20000;
constexpr Addr remoteBase = 0x30000;
constexpr std::uint64_t regionWords = 2048;

enum class OpKind
{
    Load,          ///< Proc::readU64, local
    Store,         ///< AlphaCore::storeU64 x2 into one line, local
    WriteLocal,    ///< Proc::writeU64, local (store + MB)
    WriteRemote,   ///< Proc::writeU64, remote (store + MB + poll)
    Mb,            ///< AlphaCore::mb
    AnnexedStore,  ///< Node::storeU64 through the annex, remote
    PutLocal,      ///< Proc::putU64, local
    ReadRemote,    ///< Proc::readU64, remote
    Get,           ///< Proc::getU64
    BulkGet,       ///< Proc::bulkGet (prefetch path)
};

struct Op
{
    OpKind kind;
    std::uint64_t word;  ///< word index into the region
    std::uint64_t value; ///< value stored
    std::uint64_t words; ///< bulk get length in words
};

/** Mostly a hot 128-word window (hits, merges), sometimes anywhere. */
std::uint64_t
drawWord(std::uint64_t &rng)
{
    const std::uint64_t r = splitMix64(rng);
    return (r & 1) ? (r >> 8) % 128 : (r >> 8) % regionWords;
}

std::vector<Op>
makeOps(std::uint64_t seed, std::size_t count)
{
    std::uint64_t rng = seed;
    std::vector<Op> ops;
    constexpr OpKind kinds[] = {
        OpKind::Load,        OpKind::Load,        OpKind::Store,
        OpKind::Store,       OpKind::WriteLocal,  OpKind::WriteLocal,
        OpKind::WriteRemote, OpKind::Mb,          OpKind::AnnexedStore,
        OpKind::PutLocal,    OpKind::ReadRemote,  OpKind::Get,
        OpKind::Get,         OpKind::BulkGet,
    };
    while (ops.size() < count) {
        const OpKind kind =
            kinds[splitMix64(rng) % (sizeof(kinds) / sizeof(kinds[0]))];
        Op op{kind, drawWord(rng), splitMix64(rng), 0};
        if (kind == OpKind::BulkGet) {
            op.words = 1 + splitMix64(rng) % 40;
            op.word = std::min(op.word, regionWords - op.words);
        }
        ops.push_back(op);
    }
    return ops;
}

/** Everything a host shortcut must not change, after one op. */
struct Snapshot
{
    Cycles clock0 = 0;
    Cycles clock1 = 0;
    unsigned wbOccupancy = 0;
    unsigned prefetchOutstanding = 0;
    probes::PerfCounters counters0, counters1;
    std::vector<std::uint8_t> localBytes;
    std::vector<std::uint8_t> remoteBytes;

    bool operator==(const Snapshot &) const = default;
};

Snapshot
snapshot(Machine &m)
{
    Snapshot s;
    auto &n0 = m.node(0);
    auto &n1 = m.node(1);
    s.clock0 = n0.clock().now();
    s.clock1 = n1.clock().now();
    s.wbOccupancy = n0.writeBuffer().occupancy(s.clock0);
    s.prefetchOutstanding = n0.shell().prefetch().outstanding();
    s.counters0 = n0.counters();
    s.counters1 = n1.counters();
    s.localBytes.resize(regionWords * 8);
    s.remoteBytes.resize(regionWords * 8);
    n0.storage().readBlock(localBase, s.localBytes.data(),
                           s.localBytes.size());
    n1.storage().readBlock(remoteBase, s.remoteBytes.data(),
                           s.remoteBytes.size());
    return s;
}

/** Run @p ops on a fresh machine; @p via_proc picks Proc::writeU64 for
 *  the blocking writes. */
std::vector<Snapshot>
runOps(const std::vector<Op> &ops, bool via_proc, Cycles holdoff,
       bool counters)
{
    MachineConfig config = MachineConfig::t3d(2);
    config.observe.counters = counters;
    config.writeBuffer.holdoffCycles = holdoff;
    Machine m(config);
    for (std::uint64_t w = 0; w < regionWords; ++w)
        m.node(1).storage().writeU64(remoteBase + w * 8, 0x1000 + w);

    std::vector<Snapshot> snaps;
    const splitc::SplitcConfig sc;
    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() != 0)
            co_return;
        auto &node = p.node();
        auto &core = node.core();
        for (const Op &op : ops) {
            const Addr local = localBase + op.word * 8;
            const GlobalAddr here = GlobalAddr::make(0, local);
            const GlobalAddr there =
                GlobalAddr::make(1, remoteBase + op.word * 8);
            switch (op.kind) {
              case OpKind::Load:
                p.readU64(here);
                break;
              case OpKind::Store:
                // Two words of one line: the second merges.
                core.storeU64(local, op.value);
                core.storeU64(localBase + (op.word ^ 1) * 8, ~op.value);
                break;
              case OpKind::WriteLocal:
                if (via_proc) {
                    p.writeU64(here, op.value);
                } else {
                    core.chargeRegOps(2);
                    core.storeU64(local, op.value);
                    core.mb();
                }
                break;
              case OpKind::WriteRemote:
                if (via_proc) {
                    p.writeU64(there, op.value);
                } else {
                    const unsigned idx = p.annexFor(1);
                    core.charge(sc.ptrOverheadCycles);
                    node.storeU64(Proc::vaFor(idx, there.local()),
                                  op.value);
                    node.waitRemoteWrites();
                }
                break;
              case OpKind::Mb:
                core.mb();
                break;
              case OpKind::AnnexedStore:
                node.storeU64(Proc::vaFor(p.annexFor(1), there.local()),
                              op.value);
                break;
              case OpKind::PutLocal:
                p.putU64(here, op.value);
                break;
              case OpKind::ReadRemote:
                p.readU64(there);
                break;
              case OpKind::Get:
                p.getU64(there, local);
                break;
              case OpKind::BulkGet:
                p.bulkGet(local, there, op.words * 8);
                break;
            }
            snaps.push_back(snapshot(m));
        }
        p.sync();
        snaps.push_back(snapshot(m));
        co_return;
    });
    return snaps;
}

TEST(FastPath, BlockingWritesMatchStoreThenMb)
{
    // The default 12-cycle hold-off outlasts a store's 3-cycle issue,
    // so a blocking store's MB issues the line; with 1 the line has
    // issued on its own by the time the MB runs. One seed runs with
    // counters off, as served jobs do: the counters then stay zero
    // and the clocks, bytes and occupancies carry the comparison.
    struct Case
    {
        std::uint64_t seed;
        Cycles holdoff;
        bool counters;
    };
    for (const auto &[seed, holdoff, counters] :
         {Case{1, 12, true}, Case{42, 12, true}, Case{0xfeed, 12, true},
          Case{7, 1, true}, Case{99, 12, false}}) {
        const std::vector<Op> ops = makeOps(seed, 600);
        const std::vector<Snapshot> fast =
            runOps(ops, true, holdoff, counters);
        const std::vector<Snapshot> slow =
            runOps(ops, false, holdoff, counters);
        ASSERT_EQ(fast.size(), ops.size() + 1);
        ASSERT_EQ(fast.size(), slow.size());
        for (std::size_t i = 0; i < fast.size(); ++i) {
            ASSERT_TRUE(fast[i] == slow[i])
                << "seed " << seed << ", hold-off " << holdoff
                << ", counters " << counters
                << ": machines diverge after op " << i
                << " (kind "
                << (i < ops.size() ? static_cast<int>(ops[i].kind) : -1)
                << "): clock " << fast[i].clock0 << " vs "
                << slow[i].clock0;
        }
        // The mix reached loads that hit and miss and stores that
        // merge, around the blocking writes.
        if (!counters)
            continue;
        const probes::PerfCounters &last = fast.back().counters0;
        EXPECT_GT(last.l1Hits, 0u);
        EXPECT_GT(last.l1Misses, 0u);
        if (holdoff > 3) { // else every line issues before a merge
            EXPECT_GT(last.wbMerges, 0u);
        }
    }
}

} // namespace
