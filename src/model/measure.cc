#include "model/measure.hh"

#include <array>

#include "alpha/address.hh"
#include "machine/machine.hh"
#include "probes/counters.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

namespace t3dsim::model
{

namespace
{

using machine::Machine;
using machine::MachineConfig;
using probes::PerfCounters;

MachineConfig
countedConfig(std::uint32_t pes)
{
    MachineConfig config = MachineConfig::t3d(pes);
    config.observe.counters = true;
    return config;
}

/** Nonzero counter deltas between two snapshots, scaled. */
std::vector<std::pair<std::string, double>>
counterDelta(const PerfCounters &before, const PerfCounters &after,
             double scale = 1.0)
{
    std::vector<std::pair<std::string, double>> out;
    const auto &infos = PerfCounters::infos();
    for (std::size_t i = 0; i < PerfCounters::numCounters; ++i) {
        const double d =
            double(after.value(i)) - double(before.value(i));
        if (d != 0)
            out.emplace_back(infos[i].name, d * scale);
    }
    return out;
}

SweepPoint
makePoint(double x, Cycles elapsed, const PerfCounters &before,
          const PerfCounters &after, double scale = 1.0)
{
    SweepPoint p;
    p.x = x;
    p.cycles = double(elapsed) * scale;
    p.counters = counterDelta(before, after, scale);
    return p;
}

/** Run @p body as one timed region of @p node: the point's cycles
 *  and counter deltas are @p node's, scaled by @p scale. */
template <typename Body>
SweepPoint
timedPoint(machine::Node &node, double x, Body &&body, double scale = 1.0)
{
    const PerfCounters before = node.counters();
    const Cycles t0 = node.clock().now();
    body();
    return makePoint(x, node.clock().now() - t0, before, node.counters(),
                     scale);
}

Sweep
localReadHit()
{
    Machine m(countedConfig(2));
    auto &n0 = m.node(0);
    for (unsigned i = 0; i < 8; ++i)
        n0.loadU64(0x1000 + 8 * i); // warm two lines
    Sweep s{"local_read_hit", "reads", {}, "warmed cached loads"};
    for (unsigned n : {32u, 64u, 128u, 256u, 512u}) {
        s.points.push_back(timedPoint(n0, n, [&] {
            for (unsigned i = 0; i < n; ++i)
                n0.loadU64(0x1000 + 8 * (i % 8));
        }));
    }
    return s;
}

Sweep
localWriteLines()
{
    Machine m(countedConfig(2));
    auto &n0 = m.node(0);
    n0.storeU64(0x4000, 1); // warm page + TLB
    n0.mb();
    Sweep s{"local_write_lines", "lines",
            {}, "one store per 32 B line, MB drain included"};
    for (unsigned n : {16u, 32u, 64u, 128u}) {
        s.points.push_back(timedPoint(n0, n, [&] {
            for (unsigned i = 0; i < n; ++i)
                n0.storeU64(0x4000 + 32 * (i % 512), i);
            n0.mb();
        }));
    }
    return s;
}

Sweep
localWriteMerged()
{
    Machine m(countedConfig(2));
    auto &n0 = m.node(0);
    n0.storeU64(0x8000, 1);
    n0.mb();
    Sweep s{"local_write_merged", "stores",
            {}, "sequential stores, four per line merge in the WB"};
    for (unsigned n : {64u, 128u, 256u, 512u}) {
        s.points.push_back(timedPoint(n0, n, [&] {
            for (unsigned i = 0; i < n; ++i)
                n0.storeU64(0x8000 + 8 * (i % 2048), i);
            n0.mb();
        }));
    }
    return s;
}

Sweep
localReadMiss()
{
    Machine m(countedConfig(2));
    auto &n0 = m.node(0);
    constexpr Addr base = 0x20000;
    n0.loadU64(base); // warm TLB + DRAM page
    Sweep s{"local_read_miss", "reads",
            {}, "16 KiB region: every load misses L1, hits the page"};
    for (unsigned n : {32u, 64u, 128u, 256u}) {
        s.points.push_back(timedPoint(n0, n, [&] {
            for (unsigned i = 0; i < n; ++i)
                n0.loadU64(base + 32 * (i % 512));
        }));
    }
    return s;
}

Sweep
localReadOffpage()
{
    Machine m(countedConfig(2));
    auto &n0 = m.node(0);
    constexpr Addr base = 0x400000; // 4 MiB aligned: one TLB page
    n0.loadU64(base);
    Sweep s{"local_read_offpage", "reads",
            {}, "16 KiB stride: every load misses L1 and the DRAM page"};
    for (unsigned n : {32u, 64u, 128u, 256u}) {
        s.points.push_back(timedPoint(n0, n, [&] {
            for (unsigned i = 0; i < n; ++i)
                n0.loadU64(base + 16 * KiB * (i % 128));
        }));
    }
    return s;
}

Sweep
splitcReadFixed()
{
    Machine m(countedConfig(2));
    Sweep s{"splitc_read_fixed", "reads",
            {}, "blocking Split-C reads, fixed adjacent target"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            p.readU64(splitc::GlobalAddr::make(1, 0)); // warm
            for (unsigned n : {8u, 16u, 32u, 64u}) {
                s.points.push_back(timedPoint(p.node(), n, [&] {
                    for (unsigned i = 0; i < n; ++i)
                        p.readU64(splitc::GlobalAddr::make(1, 0));
                }));
            }
            co_return;
        });
    return s;
}

Sweep
splitcReadDistance()
{
    Machine m(countedConfig(64)); // 4x4x4 torus
    Sweep s{"splitc_read_distance", "hops",
            {}, "fixed read count, target distance varies"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            constexpr unsigned reads = 16;
            for (PeId target : {1u, 4u, 5u, 16u, 21u, 42u, 63u}) {
                p.readU64(splitc::GlobalAddr::make(target, 0)); // warm
                s.points.push_back(timedPoint(
                    p.node(), double(m.torus().hops(0, target)), [&] {
                        for (unsigned i = 0; i < reads; ++i)
                            p.readU64(
                                splitc::GlobalAddr::make(target, 0));
                    }));
            }
            co_return;
        });
    return s;
}

Sweep
splitcReadAlternate()
{
    Machine m(countedConfig(4));
    Sweep s{"splitc_read_alternate", "reads",
            {}, "alternating targets: every read refaults the annex"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            p.readU64(splitc::GlobalAddr::make(1, 0));
            p.readU64(splitc::GlobalAddr::make(2, 0)); // warm both
            for (unsigned n : {8u, 16u, 32u, 64u}) {
                s.points.push_back(timedPoint(p.node(), n, [&] {
                    for (unsigned i = 0; i < n; ++i)
                        p.readU64(
                            splitc::GlobalAddr::make(1 + (i & 1), 0));
                }));
            }
            co_return;
        });
    return s;
}

Sweep
splitcPutStream()
{
    Machine m(countedConfig(2));
    Sweep s{"splitc_put_stream", "puts",
            {}, "one put per remote line, sync included"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            p.putU64(splitc::GlobalAddr::make(1, 0), 1); // warm
            p.sync();
            // Long runs: the final sync's pipeline-drain wait is a
            // constant tail, and the no-intercept group fit needs it
            // small relative to the per-line stream cost.
            for (unsigned n : {64u, 128u, 256u, 512u}) {
                s.points.push_back(timedPoint(p.node(), n, [&] {
                    for (unsigned i = 0; i < n; ++i)
                        p.putU64(
                            splitc::GlobalAddr::make(1, 32 * (i % 256)),
                            i);
                    p.sync();
                }));
            }
            co_return;
        });
    return s;
}

Sweep
splitcGetGroups()
{
    Machine m(countedConfig(2));
    Sweep s{"splitc_get_groups", "gets",
            {}, "pipelined gets in groups of 8"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            p.readU64(splitc::GlobalAddr::make(1, 0)); // warm
            for (unsigned n : {16u, 32u, 64u, 128u}) {
                s.points.push_back(timedPoint(p.node(), n, [&] {
                    for (unsigned i = 0; i < n; ++i) {
                        p.getU64(
                            splitc::GlobalAddr::make(1, 8 * (i % 8)),
                            0x100 + 8 * (i % 8));
                        if (i % 8 == 7)
                            p.sync();
                    }
                    p.sync();
                }));
            }
            co_return;
        });
    return s;
}

Sweep
splitcGetDeep()
{
    Machine m(countedConfig(2));
    Sweep s{"splitc_get_deep", "gets",
            {}, "groups of 64 overflow the 16-slot prefetch queue"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            p.readU64(splitc::GlobalAddr::make(1, 0)); // warm
            for (unsigned n : {64u, 128u, 256u}) {
                s.points.push_back(timedPoint(p.node(), n, [&] {
                    for (unsigned i = 0; i < n; ++i) {
                        p.getU64(
                            splitc::GlobalAddr::make(1, 8 * (i % 8)),
                            0x100 + 8 * (i % 8));
                        if (i % 64 == 63)
                            p.sync();
                    }
                    p.sync();
                }));
            }
            co_return;
        });
    return s;
}

void
messagingSweeps(Sweep &send, Sweep &dispatch)
{
    Machine m(countedConfig(2));
    const std::array<std::uint64_t, 4> words = {1, 2, 3, 4};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            for (unsigned n : {4u, 8u, 16u, 32u}) {
                co_await p.barrier();
                if (p.pe() == 0) {
                    send.points.push_back(timedPoint(p.node(), n, [&] {
                        for (unsigned i = 0; i < n; ++i)
                            p.sendMessage(1, words);
                    }));
                }
                co_await p.barrier();
                if (p.pe() == 1) {
                    dispatch.points.push_back(timedPoint(p.node(), n, [&] {
                        for (unsigned i = 0; i < n; ++i)
                            p.takeMessage(false);
                    }));
                }
            }
            co_return;
        });
}

Sweep
fetchIncSweep()
{
    Machine m(countedConfig(2));
    Sweep s{"fetch_inc", "ops", {}, "remote fetch&inc round trips"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            p.fetchInc(1, 0); // warm
            for (unsigned n : {4u, 8u, 16u, 32u}) {
                s.points.push_back(timedPoint(p.node(), n, [&] {
                    for (unsigned i = 0; i < n; ++i)
                        p.fetchInc(1, 0);
                }));
            }
            co_return;
        });
    return s;
}

Sweep
barrierSweep()
{
    Sweep s{"barrier_pes", "pes",
            {}, "per-barrier cycles, all PEs arriving together"};
    for (std::uint32_t pes : {2u, 4u, 8u, 16u, 32u, 64u}) {
        Machine m(countedConfig(pes));
        splitc::runSpmd(
            m,
            [&](splitc::Proc &p) -> splitc::ProcTask {
                co_await p.barrier(); // warm
                // Timed by hand: the region co_awaits, which a
                // timedPoint() body cannot.
                constexpr unsigned reps = 8;
                PerfCounters before;
                Cycles t0 = 0;
                if (p.pe() == 0) {
                    before = p.node().counters();
                    t0 = p.now();
                }
                for (unsigned k = 0; k < reps; ++k)
                    co_await p.barrier();
                if (p.pe() == 0) {
                    s.points.push_back(
                        makePoint(pes, p.now() - t0, before,
                                  p.node().counters(), 1.0 / reps));
                }
                co_return;
            });
    }
    return s;
}

Sweep
bltSweep(bool write)
{
    Machine m(countedConfig(2));
    Sweep s{write ? "blt_write" : "blt_read", "bytes",
            {}, "block-transfer engine size sweep"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            for (std::size_t bytes :
                 {4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB}) {
                s.points.push_back(timedPoint(p.node(), double(bytes), [&] {
                    if (write)
                        p.bulkWriteBlt(
                            splitc::GlobalAddr::make(1, 0x100000),
                            0x400000, bytes);
                    else
                        p.bulkReadBlt(
                            0x400000,
                            splitc::GlobalAddr::make(1, 0x100000),
                            bytes);
                    p.node().mb();
                }));
            }
            co_return;
        });
    return s;
}

Sweep
bulkGetPrefetchSweep()
{
    Machine m(countedConfig(2));
    Sweep s{"bulk_get_prefetch", "bytes",
            {}, "bulk read through the prefetch pipeline"};
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            p.readU64(splitc::GlobalAddr::make(1, 0)); // warm
            for (std::size_t bytes :
                 {512ul, 2 * KiB, 8 * KiB, 32 * KiB, 64 * KiB}) {
                s.points.push_back(timedPoint(p.node(), double(bytes), [&] {
                    p.bulkReadPrefetch(
                        0x400000, splitc::GlobalAddr::make(1, 0x100000),
                        bytes);
                    p.node().mb();
                }));
            }
            co_return;
        });
    return s;
}

Sweep
prefetchGroupSweep()
{
    Sweep s{"prefetch_group", "group",
            {}, "raw fetch/pop group: cycles for one sync group"};
    for (unsigned group : {1u, 2u, 4u, 8u, 12u, 16u}) {
        Machine m(countedConfig(2));
        auto &n0 = m.node(0);
        n0.shell().setAnnex(1, {1, shell::ReadMode::Uncached});
        n0.loadU64(alpha::makeAnnexedVa(1, 0)); // warm
        constexpr unsigned reps = 16;
        s.points.push_back(timedPoint(
            n0, group,
            [&] {
                for (unsigned r = 0; r < reps; ++r) {
                    for (unsigned i = 0; i < group; ++i)
                        n0.fetchHint(alpha::makeAnnexedVa(1, 8 * i));
                    if (n0.shell().prefetch().needsMbBeforePop())
                        n0.mb();
                    for (unsigned i = 0; i < group; ++i)
                        n0.core().storeU64(0x100 + 8 * i,
                                           n0.popPrefetch());
                }
            },
            1.0 / reps));
    }
    return s;
}

} // namespace

std::vector<Sweep>
measureAll()
{
    std::vector<Sweep> sweeps;
    sweeps.push_back(localReadHit());
    sweeps.push_back(localWriteLines());
    sweeps.push_back(localWriteMerged());
    sweeps.push_back(localReadMiss());
    sweeps.push_back(localReadOffpage());
    sweeps.push_back(splitcReadFixed());
    sweeps.push_back(splitcReadDistance());
    sweeps.push_back(splitcReadAlternate());
    sweeps.push_back(splitcPutStream());
    sweeps.push_back(splitcGetGroups());
    sweeps.push_back(splitcGetDeep());

    Sweep send{"msg_send", "messages", {}, "user-level sends, PE0"};
    Sweep dispatch{"msg_dispatch", "messages",
                   {}, "queued message dispatch, PE1"};
    messagingSweeps(send, dispatch);
    sweeps.push_back(std::move(send));
    sweeps.push_back(std::move(dispatch));

    sweeps.push_back(fetchIncSweep());
    sweeps.push_back(barrierSweep());
    sweeps.push_back(bltSweep(false));
    sweeps.push_back(bltSweep(true));
    sweeps.push_back(bulkGetPrefetchSweep());
    sweeps.push_back(prefetchGroupSweep());
    return sweeps;
}

} // namespace t3dsim::model
