/**
 * @file
 * `t3d-paper` -- every figure, table and ablation of the paper's
 * evaluation (DESIGN.md §3), in paper order. Each experiment prints
 * its figure or table and returns its landmark rows -- model value
 * against the paper's -- as data, and the driver checks every numeric
 * landmark against its band (EXPERIMENTS.md "Landmark gate").
 *
 * Usage: t3d-paper [--only NAME] [--quick] [--counters[=PATH]]
 *                  [--trace[=PATH]]
 *   With no arguments every experiment runs; --only runs one, by its
 *   name in the registry below. A landmark outside its band, or one
 *   whose probe point is missing, is named on stderr after the output
 *   and the exit status is 1.
 *   The Figure 9 options need --only fig9_em3d: --quick shrinks the
 *   graph (100 nodes/PE, degree 8, 8 PEs); --counters / --trace rerun
 *   one cell (20% remote, Bulk) with the observability layer on and
 *   write its counter / Chrome-trace report to PATH (defaults:
 *   fig9.counters.json, fig9.trace.json). Simulated timing is
 *   unchanged either way.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "alpha/address.hh"
#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "machine/workstation.hh"
#include "probes/counters.hh"
#include "probes/stride.hh"
#include "probes/table.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

#include "cli.hh"

using namespace t3dsim;
using shell::ReadMode;
using splitc::AnnexPolicy;
using splitc::GlobalAddr;

namespace
{

// ---------------------------------------------------------------
// Landmarks as data

/** The model value must lie within @c tolerance (a fraction) of
 *  @c expect. */
struct Band
{
    double expect;
    double tolerance;
};

/** @name The tolerance classes of EXPERIMENTS.md "Landmark gate" */
/// @{
/** A paper measurement that a calibration constant was set from. */
Band calibrated(double paper) { return {paper, 0.05}; }
/** An end-to-end cost the paper did not decompose (deviation 2). */
Band composite(double paper) { return {paper, 0.10}; }
/** A known deviation: the model value it records. */
Band deviation(double model) { return {model, 0.05}; }
/** §3.4: "no clear performance advantage" between annex policies. */
const Band kAnnexPolicy{1, 0.15};
/** A structural result that must come out exactly. */
Band exact(double value) { return {value, 0}; }
/// @}

/** One landmark. A row without a band is qualitative: it fails only
 *  when its value is missing (NaN), e.g. an unprobed point. */
struct Landmark
{
    std::string label;
    std::string model; ///< the printed model cell
    std::string paper; ///< the printed paper cell
    double value = 0;
    std::optional<Band> band = {};
};

using Landmarks = std::vector<Landmark>;

bool
fails(const Landmark &l)
{
    return std::isnan(l.value) ||
        (l.band && !(std::abs(l.value - l.band->expect) <=
                     l.band->tolerance * std::abs(l.band->expect)));
}

std::string
fixed(double v, int decimals = 1)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

/** A row whose model cell is @p value to one decimal ("-" if NaN). */
Landmark
row(std::string label, double value, std::string paper,
    std::optional<Band> band = {})
{
    return {std::move(label), std::isnan(value) ? "-" : fixed(value),
            std::move(paper), value, band};
}

/** A checked value the experiment prints in its own words. */
Landmark
check(std::string label, double value, Band band)
{
    return {std::move(label), "", "", value, band};
}

/** Print @p rows as a landmark table and return them. */
Landmarks
table(std::vector<std::string> headers, Landmarks rows)
{
    probes::Table t(std::move(headers));
    for (const Landmark &l : rows)
        t.addRow(l.label, l.model, l.paper);
    t.print();
    return rows;
}

// ---------------------------------------------------------------
// Shared probes

/** "64", "16K", "2M" style size label. */
std::string
sizeLabel(std::uint64_t bytes)
{
    if (bytes >= MiB && bytes % MiB == 0)
        return std::to_string(bytes / MiB) + "M";
    if (bytes >= KiB && bytes % KiB == 0)
        return std::to_string(bytes / KiB) + "K";
    return std::to_string(bytes);
}

/** A sawtooth stride probe from 4 KB arrays up, printed as the
 *  paper's latency figures tabulate it. */
class StrideFigure
{
  public:
    template <typename OpFn, typename NowFn>
    StrideFigure(const std::string &title, OpFn &&op, NowFn &&now,
                 Addr base, std::uint64_t max_array)
        : _points(probes::strideProbe(op, now, base, 4 * KiB, max_array))
    {
        std::cout << "\n== " << title << " ==\n"
                  << "rows: array size; cols: stride; cell: avg ns/op\n"
                  << "  array\\stride";
        std::vector<std::uint64_t> strides;
        for (const auto &p : _points) {
            if (p.arrayBytes == max_array)
                strides.push_back(p.strideBytes);
        }
        for (auto s : strides)
            std::cout << "\t" << sizeLabel(s);
        std::cout << "\n";
        for (std::uint64_t array = 4 * KiB; array <= max_array;
             array *= 2) {
            std::cout << "  " << sizeLabel(array);
            for (auto s : strides) {
                const double ns = at(array, s);
                std::cout << "\t" << (std::isnan(ns) ? "-" : fixed(ns));
            }
            std::cout << "\n";
        }
    }

    /** Average ns per op at (@p array, @p stride); NaN if unprobed. */
    double
    at(std::uint64_t array, std::uint64_t stride) const
    {
        const auto *p = probes::findPoint(_points, array, stride);
        return p ? p->avgNsPerOp : NAN;
    }

    Landmark
    row(std::string label, std::uint64_t array, std::uint64_t stride,
        std::string paper, std::optional<Band> band = {}) const
    {
        return ::row(std::move(label), at(array, stride),
                     std::move(paper), band);
    }

  private:
    std::vector<probes::StridePoint> _points;
};

/** A 2-PE machine whose node 0 reaches node 1 through annex 1. */
struct AdjacentPair
{
    explicit AdjacentPair(
        ReadMode mode = ReadMode::Uncached,
        machine::MachineConfig cfg = machine::MachineConfig::t3d(2))
        : m(cfg)
    {
        n0.shell().setAnnex(1, {1, mode});
    }

    /** Stride figure of @p op on node 1's memory, arrays to 4 MB. */
    StrideFigure
    probe(const std::string &title, void (*op)(machine::Node &, Addr))
    {
        return StrideFigure(
            title, [this, op](Addr a) { op(n0, a); },
            [this] { return n0.clock().now(); },
            alpha::makeAnnexedVa(1, 0), 4 * MiB);
    }

    machine::Machine m;
    machine::Node &n0 = m.node(0);
};

/** One Split-C operation from PE 0: op(p, dst, i). */
using SplitcOp = void (*)(splitc::Proc &, GlobalAddr, int);

/**
 * Average ns of @p op on a 3-PE machine, timed as the paper's
 * end-to-end Split-C costs are: after one warm-up op on each of PEs 1
 * and 2 (at offset 0) and a sync, 64 ops alternate between the two
 * targets so each pays the annex set-up; the i-th goes to offset
 * 64 + @p stride * (i % @p wrap).
 */
double
splitcNsPerOp(SplitcOp op, Addr stride, int wrap)
{
    machine::Machine m(machine::MachineConfig::t3d(3));
    double ns = 0;
    splitc::runSpmd(m, [&](splitc::Proc &p) -> splitc::ProcTask {
        if (p.pe() != 0)
            co_return;
        op(p, GlobalAddr::make(1, 0), 0); // warm pages
        op(p, GlobalAddr::make(2, 0), 0);
        p.sync();
        const int n = 64;
        const Cycles t0 = p.now();
        for (int i = 0; i < n; ++i)
            op(p, GlobalAddr::make(1 + (i % 2), 64 + stride * (i % wrap)),
               i);
        ns = cyclesToNs(p.now() - t0) / n;
        p.sync();
        co_return;
    });
    return ns;
}

/** Cycles per element of raw prefetch groups of @p group: issue, MB
 *  if needed, pops + local stores, @p reps times. */
double
prefetchGroupCycles(unsigned group, int reps,
                    machine::MachineConfig cfg = machine::MachineConfig::t3d(2))
{
    AdjacentPair pair(ReadMode::Uncached, cfg);
    machine::Node &n0 = pair.n0;
    n0.loadU64(alpha::makeAnnexedVa(1, 0)); // warm the remote page

    const Cycles t0 = n0.clock().now();
    for (int r = 0; r < reps; ++r) {
        for (unsigned i = 0; i < group; ++i)
            n0.fetchHint(alpha::makeAnnexedVa(1, 8 * i));
        if (n0.shell().prefetch().needsMbBeforePop())
            n0.mb();
        for (unsigned i = 0; i < group; ++i)
            n0.core().storeU64(0x100 + 8 * i, n0.popPrefetch());
    }
    return double(n0.clock().now() - t0) / (reps * group);
}

// ---------------------------------------------------------------
// §2: the node

/** Figure 1: the 8 KB direct-mapped L1 and its 32-byte lines, the
 *  145 ns memory, the 16 KB DRAM-page and 64 KB bank effects, no L2
 *  and no TLB cost on the T3D; L1/L2/memory bands and the 8 KB-stride
 *  TLB inflection on the workstation. */
Landmarks
fig1LocalRead()
{
    std::cout << "Figure 1: local memory read latency (sawtooth "
                 "stride probe, ns per read)\n";

    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    const StrideFigure t3d(
        "CRAY-T3D node", [&](Addr a) { node.core().loadU64(a); },
        [&] { return node.clock().now(); }, 0, 8 * MiB);
    Landmarks rows = table(
        {"landmark", "model", "paper (Sec. 2.2)"},
        {t3d.row("cache hit (<=8K array)", 8 * KiB, 8, "6.67 ns",
                 calibrated(6.67)),
         t3d.row("memory access (64K/32)", 64 * KiB, 32,
                 "145 ns (22 cy)", calibrated(145)),
         t3d.row("off-page (1M/16K)", 1 * MiB, 16 * KiB,
                 "205 ns (31 cy)", calibrated(205)),
         t3d.row("same-bank (1M/64K)", 1 * MiB, 64 * KiB,
                 "264 ns (40 cy)", calibrated(264))});

    machine::Workstation ws;
    const StrideFigure dec(
        "DEC Alpha workstation", [&](Addr a) { ws.loadU64(a); },
        [&] { return ws.clock().now(); }, 0, 8 * MiB);
    const Landmarks ws_rows = table(
        {"landmark", "model", "paper (Sec. 2.2)"},
        {dec.row("L1 band (8K/8)", 8 * KiB, 8, "6.67 ns",
                 calibrated(6.67)),
         dec.row("L2 band (256K/32)", 256 * KiB, 32, "~60 ns",
                 calibrated(60)),
         dec.row("memory band (8M/32)", 8 * MiB, 32, "300 ns (45 cy)",
                 calibrated(300)),
         dec.row("TLB inflection (8M/8K)", 8 * MiB, 8 * KiB,
                 "rise at 8 KB page size")});
    rows.insert(rows.end(), ws_rows.begin(), ws_rows.end());
    return rows;
}

/** Figure 2: write merging below the 32-byte line (~20 ns per
 *  store), the 4-entry write buffer's steady state against the
 *  145 ns memory, and the off-page inflection at 16 KB strides. */
Landmarks
fig2LocalWrite()
{
    std::cout << "Figure 2: local memory write cost (sawtooth stride "
                 "probe, ns per write)\n";

    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    const StrideFigure fig(
        "CRAY-T3D node (writes)",
        [&](Addr a) { node.core().storeU64(a, 0x5a5a5a5aull); },
        [&] { return node.clock().now(); }, 0, 8 * MiB);
    // Known deviation 1: the FIFO-retirement write buffer's steady
    // state is 41.7 ns, so the derived buffer size is 3.5.
    Landmarks rows = table(
        {"landmark", "model (ns)", "paper (Sec. 2.3)"},
        {fig.row("merged writes (64K/8)", 64 * KiB, 8,
                 "~20 ns (write merging)", calibrated(20)),
         fig.row("line-distinct (64K/32)", 64 * KiB, 32,
                 "~35 ns (4-entry WB vs 145 ns memory)", deviation(41.7)),
         fig.row("off-page (1M/16K)", 1 * MiB, 16 * KiB,
                 "distinctly slower (DRAM page miss)"),
         fig.row("same-bank (1M/64K)", 1 * MiB, 64 * KiB, "worst case")});

    const double entries = 145.0 / fig.at(64 * KiB, 32);
    std::cout << "derived write-buffer size estimate: "
              << "memory access / steady-state cost = " << entries
              << " (paper: 4 entries)\n";
    rows.push_back(check("derived write-buffer size", entries,
                         deviation(3.5)));
    return rows;
}

/** Stream 1 MB at line stride and report MB/s. */
template <typename LoadFn, typename NowFn>
double
streamBandwidth(LoadFn &&load, NowFn &&now)
{
    const std::size_t bytes = 1 * MiB;
    for (Addr a = 0; a < bytes; a += 32) // warm TLB / pages
        load(a);
    const Cycles t0 = now();
    for (Addr a = 0; a < bytes; a += 32)
        load(a);
    const double secs = cyclesToNs(now() - t0) * 1e-9;
    return (double(bytes) / 1e6) / secs;
}

/** §2.2/§2.3: the node parameters the paper derives in prose --
 *  cache geometry, memory access, no TLB effects, and the stream
 *  bandwidth against the workstation's. */
Landmarks
tabNodeParams()
{
    std::cout << "Node parameters derived from the probes "
                 "(Sec. 2.2/2.3)\n";

    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    machine::Workstation ws;
    // The TLB row needs only the TLB's misses: a record of its own
    // counts them without building a counting machine.
    probes::PerfCounters tlb_counters;
    node.tlb().setCounters(&tlb_counters);

    // Cache size: last array size whose stride-8 sweep is all hits.
    auto points = probes::strideProbe(
        [&](Addr a) { node.core().loadU64(a); },
        [&] { return node.clock().now(); }, 0, 4 * KiB, 64 * KiB);
    std::uint64_t cache_kb = 0;
    for (std::uint64_t array = 4 * KiB; array <= 64 * KiB; array *= 2) {
        const auto *p = probes::findPoint(points, array, 8);
        if (p && p->avgCyclesPerOp < 2.0)
            cache_kb = array / KiB;
    }

    // Line size: stride at which the miss rate saturates.
    const auto *miss16 = probes::findPoint(points, 64 * KiB, 16);
    const auto *miss32 = probes::findPoint(points, 64 * KiB, 32);
    const auto *miss64 = probes::findPoint(points, 64 * KiB, 64);
    const bool line32 = miss16 && miss32 && miss64 &&
        miss32->avgCyclesPerOp > 0.95 * miss64->avgCyclesPerOp &&
        miss16->avgCyclesPerOp < 0.8 * miss32->avgCyclesPerOp;

    const double t3d_stream = streamBandwidth(
        [&](Addr a) { node.core().loadU64(a); },
        [&] { return node.clock().now(); });
    const double ws_stream =
        streamBandwidth([&](Addr a) { ws.loadU64(a); },
                        [&] { return ws.clock().now(); });
    const auto tlb_misses = tlb_counters.tlbMisses;

    return table(
        {"parameter", "model", "paper"},
        {{"L1 data cache size", std::to_string(cache_kb) + " KB", "8 KB",
          double(cache_kb), exact(8)},
         {"L1 line size (miss saturates)", line32 ? "32 B" : "?", "32 B",
          line32 ? 32.0 : NAN, exact(32)},
         row("memory access (cycles)",
             miss32 ? miss32->avgCyclesPerOp : NAN, "22-23 cycles",
             calibrated(22.5)),
         row("T3D memory stream", t3d_stream, "~220 MB/s",
             calibrated(220)),
         row("workstation memory stream", ws_stream, "~110 MB/s",
             calibrated(110)),
         {"T3D TLB misses over 32 MB sweep", std::to_string(tlb_misses),
          "none observable (huge pages)", double(tlb_misses)}});
}

// ---------------------------------------------------------------
// §4-§5: remote access to an adjacent node

/** Figure 4: uncached reads ~610 ns, cached ~765 ns (local-cache
 *  time for in-cache arrays, line reuse at 8/16-byte strides), the
 *  off-page rise at 16 KB strides, and the Split-C read (~850 ns). */
Landmarks
fig4RemoteRead()
{
    std::cout << "Figure 4: remote read latency (adjacent node, ns "
                 "per read)\n";

    auto read = [](machine::Node &n, Addr a) { n.loadU64(a); };
    const StrideFigure uncached =
        AdjacentPair(ReadMode::Uncached).probe("uncached remote reads",
                                               read);
    const StrideFigure cached =
        AdjacentPair(ReadMode::Cached).probe("cached remote reads", read);
    const double splitc_ns = splitcNsPerOp(
        [](splitc::Proc &p, GlobalAddr a, int) { p.readU64(a); }, 8, 8);

    return table(
        {"landmark", "model (ns)", "paper (Sec. 4.2)"},
        {uncached.row("uncached read (64K/32)", 64 * KiB, 32,
                      "610 ns (91 cy)", calibrated(610)),
         uncached.row("uncached off-page (1M/16K)", 1 * MiB, 16 * KiB,
                      "+100 ns (15 cy)", calibrated(610 + 100)),
         cached.row("cached read, miss (64K/32)", 64 * KiB, 32,
                    "765 ns (114 cy)", calibrated(765)),
         cached.row("cached read, in-cache array (4K/8)", 4 * KiB, 8,
                    "local cache time"),
         cached.row("cached stride-8 line reuse (64K/8)", 64 * KiB, 8,
                    "1 miss + 3 hits per line"),
         row("Split-C read (annex + overhead)", splitc_ns,
             "850 ns (128 cy)", composite(850))});
}

/** Figure 5: a blocking write is a store + MB (the §4.3 status-bit
 *  subtlety) + a status-bit poll, ~850 ns; the Split-C write adds
 *  annex set-up and pointer overhead, ~981 ns. */
Landmarks
fig5RemoteWrite()
{
    std::cout << "Figure 5: blocking remote write latency (adjacent "
                 "node, ns per write)\n";

    const StrideFigure fig = AdjacentPair().probe(
        "blocking remote writes", [](machine::Node &n, Addr a) {
            n.storeU64(a, 1);
            n.waitRemoteWrites();
        });
    const double splitc_ns = splitcNsPerOp(
        [](splitc::Proc &p, GlobalAddr a, int i) { p.writeU64(a, i); },
        8, 8);

    return table(
        {"landmark", "model (ns)", "paper (Sec. 4.3)"},
        {fig.row("blocking write (64K/32)", 64 * KiB, 32,
                 "850 ns (130 cy)", composite(850)),
         fig.row("off-page (1M/16K)", 1 * MiB, 16 * KiB,
                 "higher (remote DRAM page miss)"),
         row("Split-C write (annex + overhead)", splitc_ns,
             "981 ns (147 cy)", composite(981))});
}

/** Cycles per element of Split-C get groups of @p group. */
double
getGroupCycles(unsigned group)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    double result = 0;
    splitc::runSpmd(m, [&](splitc::Proc &p) -> splitc::ProcTask {
        if (p.pe() != 0)
            co_return;
        p.readU64(GlobalAddr::make(1, 0)); // warm
        const int reps = 16;
        const Cycles t0 = p.now();
        for (int r = 0; r < reps; ++r) {
            for (unsigned i = 0; i < group; ++i)
                p.getU64(GlobalAddr::make(1, 8 * i), 0x100 + 8 * i);
            p.sync();
        }
        result = double(p.now() - t0) / (reps * group);
        co_return;
    });
    return result;
}

/** Figure 6: cycles per element of prefetch groups of 1..16, raw
 *  (prefetch / pop / local store) and as Split-C gets (adding the
 *  target-address table), against a blocking read. */
Landmarks
fig6Prefetch()
{
    std::cout << "Figure 6: prefetch group latency (cycles per "
                 "element, adjacent node)\n";

    AdjacentPair pair;
    machine::Node &n0 = pair.n0;
    n0.loadU64(alpha::makeAnnexedVa(1, 0));
    const Cycles t0 = n0.clock().now();
    for (int i = 0; i < 32; ++i)
        n0.core().storeU64(0x100,
                           n0.loadU64(alpha::makeAnnexedVa(1, 8 * (i % 8))));
    const double blocking = double(n0.clock().now() - t0) / 32;
    std::cout << "blocking read + store reference: " << blocking
              << " cycles\n\n";

    probes::Table t({"group size", "raw prefetch (cy/elem)",
                     "Split-C get (cy/elem)"});
    for (unsigned group : {1u, 2u, 4u, 8u, 12u, 16u})
        t.addRow(group, prefetchGroupCycles(group, 16),
                 getGroupCycles(group));
    t.print();

    // Known deviation 6: a single prefetch costs 18 cycles more than
    // a blocking read.
    return table({"landmark", "model", "paper (Sec. 5.2)"},
                 {row("single prefetch vs blocking read",
                      prefetchGroupCycles(1, 16) - blocking,
                      "~+15 cycles", deviation(18)),
                  row("group of 16", prefetchGroupCycles(16, 16),
                      "31 cycles per prefetch/pop", calibrated(31))});
}

/** §5.2: the prefetch cost breakdown -- issue 4, memory barrier 4,
 *  round trip 80, pop 23 cycles -- each measured on its own, and the
 *  ~75% of a remote fetch that can be overlapped. */
Landmarks
tabPrefetchBreakdown()
{
    std::cout << "Prefetch cost breakdown (Sec. 5.2)\n";

    AdjacentPair pair;
    machine::Node &n0 = pair.n0;
    n0.loadU64(alpha::makeAnnexedVa(1, 0)); // warm remote page

    Cycles t0 = n0.clock().now();
    n0.fetchHint(alpha::makeAnnexedVa(1, 8));
    const Cycles issue = n0.clock().now() - t0;

    // MB cost (write buffer is empty here: pure instruction cost).
    t0 = n0.clock().now();
    n0.mb();
    const Cycles mb = n0.clock().now() - t0;

    // Round trip: time from after-MB until the pop would not stall,
    // i.e. total pop latency minus the pop's own cost.
    t0 = n0.clock().now();
    n0.popPrefetch();
    const Cycles pop = pair.m.config().shell.prefetchPopCycles;
    const Cycles round_trip = n0.clock().now() - t0 - pop;
    const Cycles total = issue + mb + round_trip + pop;

    auto cycles = [](std::string label, Cycles model, double paper,
                     std::string paper_cell) -> Landmark {
        return {std::move(label), std::to_string(model),
                std::move(paper_cell), double(model), calibrated(paper)};
    };
    Landmarks rows =
        table({"component", "model (cycles)", "paper (cycles)"},
              {cycles("prefetch issue", issue, 4, "4"),
               cycles("memory barrier", mb, 4, "4"),
               cycles("round trip", round_trip, 80, "80"),
               cycles("prefetch pop", pop, 23, "23"),
               cycles("total (unoverlapped)", total, 111, "~111")});

    const double overlap = double(round_trip) / double(total);
    std::cout << "overlappable fraction of a remote fetch: "
              << overlap * 100.0 << "% (paper: ~75% can be hidden)\n";
    rows.push_back(
        check("overlappable fraction", overlap, composite(0.75)));
    return rows;
}

/** Figure 7: merging below the 32-byte line, line-distinct stores at
 *  ~115 ns (17 cy) set by shell injection, remote page misses at
 *  16 KB+ strides through the injection window, and the Split-C put
 *  (~300 ns). */
Landmarks
fig7NbWrite()
{
    std::cout << "Figure 7: non-blocking remote write cost (ns per "
                 "write)\n";

    AdjacentPair pair;
    const StrideFigure fig =
        pair.probe("non-blocking remote writes",
                   [](machine::Node &n, Addr a) { n.storeU64(a, 7); });
    pair.n0.waitRemoteWrites();
    const double put_ns = splitcNsPerOp(
        [](splitc::Proc &p, GlobalAddr a, int i) { p.putU64(a, i); }, 32,
        64);

    // Known deviation 2: the Split-C put is 253 ns (38 cy).
    return table(
        {"landmark", "model (ns)", "paper (Sec. 5.3)"},
        {fig.row("merged writes (64K/8)", 64 * KiB, 8,
                 "write merging (as Fig. 2)"),
         fig.row("line-distinct (64K/32)", 64 * KiB, 32, "115 ns (17 cy)",
                 calibrated(115)),
         fig.row("off-page (1M/16K)", 1 * MiB, 16 * KiB,
                 "higher (remote DRAM page miss)"),
         row("Split-C put", put_ns, "~300 ns (45 cy)", deviation(253))});
}

// ---------------------------------------------------------------
// §6: bulk transfer

constexpr Addr remoteBase = 0x100000;
constexpr Addr localBase = 0x400000;

enum class Mech
{
    Uncached,
    Cached,
    Prefetch,
    Blt,
    SplitcRead,
    Stores,
    BltWrite,
    SplitcWrite,
};

double
bandwidthMBps(Mech mech, std::size_t bytes)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    // Seed source data.
    for (std::size_t i = 0; i < bytes / 8; ++i) {
        m.node(1).storage().writeU64(remoteBase + 8 * i, i);
        m.node(0).storage().writeU64(localBase + 8 * i, i);
    }

    double mbps = 0;
    splitc::runSpmd(m, [&](splitc::Proc &p) -> splitc::ProcTask {
        if (p.pe() != 0)
            co_return;
        auto src = GlobalAddr::make(1, remoteBase);
        auto dst = GlobalAddr::make(1, 0x700000);
        const Cycles t0 = p.now();
        switch (mech) {
          case Mech::Uncached:
            p.bulkReadUncached(localBase, src, bytes);
            break;
          case Mech::Cached:
            p.bulkReadCached(localBase, src, bytes);
            break;
          case Mech::Prefetch:
            p.bulkReadPrefetch(localBase, src, bytes);
            break;
          case Mech::Blt:
            p.bulkReadBlt(localBase, src, bytes);
            break;
          case Mech::SplitcRead:
            p.bulkRead(localBase, src, bytes);
            break;
          case Mech::Stores:
            p.bulkWriteStores(dst, localBase, bytes);
            break;
          case Mech::BltWrite:
            p.bulkWriteBlt(dst, localBase, bytes);
            break;
          case Mech::SplitcWrite:
            p.bulkWrite(dst, localBase, bytes);
            break;
        }
        p.node().mb();
        const double secs = cyclesToNs(p.now() - t0) * 1e-9;
        mbps = (double(bytes) / 1e6) / secs;
        co_return;
    });
    return mbps;
}

/** Figure 8: bulk bandwidth vs. size. Reads: uncached, cached (flush
 *  batching above 8 KB), prefetch, the BLT (180 us start-up, 140 MB/s
 *  peak) and the Split-C bulk_read choosing between them. Writes:
 *  non-blocking stores (~90 MB/s, bus-limited), the BLT, and the
 *  Split-C bulk_write. */
Landmarks
fig8Bulk()
{
    const std::size_t sizes[] = {8,        32,        64,       128,
                                 512,      2 * KiB,   8 * KiB,  16 * KiB,
                                 64 * KiB, 256 * KiB, 1 * MiB};

    std::cout << "Figure 8 (left): bulk READ bandwidth (MB/s)\n";
    probes::Table reads({"size", "uncached", "cached", "prefetch",
                         "BLT", "Split-C"});
    double blt_peak = 0;
    for (auto bytes : sizes) {
        const double blt = bandwidthMBps(Mech::Blt, bytes);
        blt_peak = std::max(blt_peak, blt);
        reads.addRow(sizeLabel(bytes), bandwidthMBps(Mech::Uncached, bytes),
                     bandwidthMBps(Mech::Cached, bytes),
                     bandwidthMBps(Mech::Prefetch, bytes), blt,
                     bandwidthMBps(Mech::SplitcRead, bytes));
    }
    reads.print();
    std::cout
        << "paper: uncached best at 8 B; prefetch best 128 B-16 KB "
           "(cached wins only at 32/64 B);\n"
        << "       BLT best above ~16 KB, peaking at ~140 MB/s "
           "(Sec. 6.2)\n\n";

    std::cout << "Figure 8 (right): bulk WRITE bandwidth (MB/s)\n";
    probes::Table writes({"size", "stores", "BLT", "Split-C"});
    double store_peak = 0;
    for (auto bytes : sizes) {
        const double stores = bandwidthMBps(Mech::Stores, bytes);
        store_peak = std::max(store_peak, stores);
        writes.addRow(sizeLabel(bytes), stores,
                      bandwidthMBps(Mech::BltWrite, bytes),
                      bandwidthMBps(Mech::SplitcWrite, bytes));
    }
    writes.print();
    std::cout << "paper: non-blocking stores superior at every size, "
                 "peaking at ~90 MB/s (bus limited)\n";

    // Known deviation 3: stores peak at 83 MB/s.
    return {check("BLT read peak", blt_peak, calibrated(140)),
            check("store write peak", store_peak, deviation(83))};
}

/** Elapsed cycles of a prefetch or BLT bulk read of @p bytes. */
Cycles
bulkReadCycles(bool use_blt, std::size_t bytes)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    Cycles elapsed = 0;
    splitc::runSpmd(m, [&](splitc::Proc &p) -> splitc::ProcTask {
        if (p.pe() != 0)
            co_return;
        const auto src = GlobalAddr::make(1, remoteBase);
        const Cycles t0 = p.now();
        if (use_blt)
            p.bulkReadBlt(localBase, src, bytes);
        else
            p.bulkReadPrefetch(localBase, src, bytes);
        elapsed = p.now() - t0;
        co_return;
    });
    return elapsed;
}

/** §6.3: the BLT takes 180 us to start, during which the prefetch
 *  queue moves ~7,900 bytes, so bulk_get prefetches below that size;
 *  and the measured prefetch-vs-BLT crossover of a blocking read. */
Landmarks
tabBulkCrossover()
{
    std::cout << "Bulk-get crossover (Sec. 6.3)\n";

    const Cycles startup =
        machine::MachineConfig::t3d(2).shell.bltStartupCycles;
    std::cout << "BLT initiation: " << cyclesToUs(startup)
              << " us (paper: 180 us)\n";

    // Bytes the prefetch mechanism moves during one BLT startup.
    const std::size_t probe_bytes = 16 * KiB;
    const double bytes_in_startup = double(probe_bytes) /
        double(bulkReadCycles(false, probe_bytes)) * double(startup);
    std::cout << "prefetch data moved in one BLT startup: "
              << bytes_in_startup << " bytes (paper: ~7,900)\n\n";

    probes::Table t({"size", "prefetch (us)", "BLT (us)", "winner"});
    std::size_t crossover = 0;
    for (std::size_t bytes = 1 * KiB; bytes <= 256 * KiB; bytes *= 2) {
        const Cycles pf = bulkReadCycles(false, bytes);
        const Cycles blt = bulkReadCycles(true, bytes);
        if (crossover == 0 && blt < pf)
            crossover = bytes;
        t.addRow(sizeLabel(bytes), cyclesToUs(pf), cyclesToUs(blt),
                 blt < pf ? "BLT" : "prefetch");
    }
    t.print();
    std::cout << "blocking-transfer crossover: ~" << sizeLabel(crossover)
              << " (paper: ~16 KB for blocking bulk_read; 7,900 B "
                 "initiation-overlap rule for bulk_get)\n";

    // Known deviation 8: the prefetch queue moves ~6,900 bytes. The
    // crossover sweep steps by powers of two.
    return {check("BLT initiation (us)", cyclesToUs(startup),
                  calibrated(180)),
            check("prefetch bytes per BLT startup", bytes_in_startup,
                  deviation(6900)),
            check("blocking-transfer crossover (KB)",
                  double(crossover / KiB), exact(16))};
}

// ---------------------------------------------------------------
// §7 and §3: messaging and the annex

/** §7.3/§7.4: hardware message send (813 ns) vs. the OS-mediated
 *  receive (25 us interrupt, +33 us handler switch), fetch&increment
 *  (~1 us), and the shared-memory Active-Message replacement
 *  (deposit ~2.9 us, dispatch ~1.5 us). */
Landmarks
tabMessaging()
{
    std::cout << "Messaging primitives (Sec. 7.3/7.4)\n";

    machine::Machine m(machine::MachineConfig::t3d(4));

    double send_ns = 0, recv_us = 0, handler_us = 0, fi_us = 0,
        deposit_us = 0, dispatch_us = 0;

    splitc::runSpmd(m, [&](splitc::Proc &p) -> splitc::ProcTask {
        p.registerAmHandler(
            32, [](splitc::Proc &, const std::array<std::uint64_t, 4> &) {});
        if (p.pe() == 0) {
            // Hardware message send.
            Cycles t0 = p.now();
            p.sendMessage(1, {1, 2, 3, 4});
            send_ns = cyclesToNs(p.now() - t0);
            p.sendMessage(1, {5, 6, 7, 8});

            // Fetch&increment (register 1; register 0 allocates AM
            // queue slots).
            t0 = p.now();
            p.fetchInc(1, 1);
            fi_us = cyclesToUs(p.now() - t0);

            // AM deposit.
            p.amDeposit(1, 32, {0, 0, 0, 0}); // warm
            t0 = p.now();
            p.amDeposit(1, 32, {1, 2, 3, 4});
            deposit_us = cyclesToUs(p.now() - t0);
            co_await p.barrier();
        } else if (p.pe() == 1) {
            co_await p.barrier();
            // Hardware message receive (interrupt path).
            Cycles t0 = p.now();
            p.takeMessage(false);
            recv_us = cyclesToUs(p.now() - t0);
            // Receive with dispatch to a user handler.
            t0 = p.now();
            p.takeMessage(true);
            handler_us = cyclesToUs(p.now() - t0);

            // AM dispatch.
            t0 = p.now();
            p.amPoll();
            dispatch_us = cyclesToUs(p.now() - t0);
            p.amPoll();
        } else {
            co_await p.barrier();
        }
        co_return;
    });

    auto timed = [](std::string label, double model, std::string unit,
                    std::string paper, Band band) -> Landmark {
        return {std::move(label), std::to_string(model) + " " + unit,
                std::move(paper), model, band};
    };
    // Known deviation 7: AM dispatch + access takes 1.76 us.
    Landmarks rows = table(
        {"operation", "model", "paper"},
        {timed("message send (PAL call)", send_ns, "ns",
               "813 ns (122 cy)", calibrated(813)),
         timed("message receive (interrupt)", recv_us, "us", "25 us",
               calibrated(25)),
         timed("receive + handler switch", handler_us, "us", "25 + 33 us",
               calibrated(25 + 33)),
         timed("fetch&increment (remote)", fi_us, "us", "~1 us",
               calibrated(1)),
         timed("AM deposit (4+2 words)", deposit_us, "us", "2.9 us",
               composite(2.9)),
         timed("AM dispatch + access", dispatch_us, "us", "1.5 us",
               deviation(1.76))});

    std::cout << "conclusion (Sec. 7.4): building message queues from "
                 "shared-memory primitives beats the 25 us interrupt "
                 "path by an order of magnitude\n";
    return rows;
}

/** PE0 reads one word from each of @p targets PEs, @p rounds times. */
Cycles
roundRobinCost(AnnexPolicy policy, unsigned targets, int rounds)
{
    machine::Machine m(machine::MachineConfig::t3d(16));
    splitc::SplitcConfig cfg;
    cfg.annexPolicy = policy;
    Cycles result = 0;
    splitc::runSpmd(
        m,
        [&](splitc::Proc &p) -> splitc::ProcTask {
            if (p.pe() != 0)
                co_return;
            for (unsigned t = 1; t <= targets; ++t) // warm
                p.readU64(GlobalAddr::make(t, 0));
            const Cycles t0 = p.now();
            for (int r = 0; r < rounds; ++r) {
                for (unsigned t = 1; t <= targets; ++t)
                    p.readU64(GlobalAddr::make(t, 0));
            }
            result = (p.now() - t0) / (rounds * targets);
            co_return;
        },
        cfg);
    return result;
}

/** §3.2/§3.4: the 23-cycle annex update, single register vs. hashed
 *  table ("no clear performance advantage"), and the write-buffer
 *  synonym hazard that rules out careless multi-register use. */
Landmarks
tabAnnex()
{
    std::cout << "Annex register management (Sec. 3.2/3.4)\n";

    machine::Machine m(machine::MachineConfig::t3d(4));
    auto &n0 = m.node(0);
    const Cycles t0 = n0.clock().now();
    n0.shell().setAnnex(1, {1, ReadMode::Uncached});
    const Cycles update = n0.clock().now() - t0;

    auto cycles = [](std::string label, Cycles model,
                     std::string paper) -> Landmark {
        return {std::move(label), std::to_string(model), std::move(paper),
                double(model)};
    };
    const Cycles single4 = roundRobinCost(AnnexPolicy::SingleReload, 4, 8);
    const Cycles hashed4 = roundRobinCost(AnnexPolicy::HashedTable, 4, 8);
    Landmarks rows = table(
        {"measurement", "model", "paper"},
        {{"annex update (store-conditional)",
          std::to_string(update) + " cy", "23 cy", double(update),
          calibrated(23)},
         cycles("single register, 4-target round robin (cy/read)",
                single4, "update every access"),
         cycles("hashed table, 4-target round robin (cy/read)", hashed4,
                "lookup every access"),
         cycles("single register, 12 targets",
                roundRobinCost(AnnexPolicy::SingleReload, 12, 8), "-"),
         cycles("hashed table, 12 targets",
                roundRobinCost(AnnexPolicy::HashedTable, 12, 8), "-")});
    rows.push_back(check("single/hashed round-robin ratio",
                         double(single4) / double(hashed4), kAnnexPolicy));
    std::cout << "paper's conclusion: the savings of a table lookup "
                 "relative to a 23-cycle reload are small — a single "
                 "annex entry could have sufficed\n\n";

    // The synonym hazard demonstration (the reason multi-register
    // schemes need care).
    n0.shell().setAnnex(1, {0, ReadMode::Uncached});
    n0.shell().setAnnex(2, {0, ReadMode::Uncached});
    const Addr offset = 0x8000;
    n0.storage().writeU64(offset, 0xaaaa);
    n0.storeU64(alpha::makeAnnexedVa(1, offset), 0xbbbb);
    const std::uint64_t read = n0.loadU64(alpha::makeAnnexedVa(2, offset));
    std::cout << "write-buffer synonym probe: wrote 0xbbbb through "
                 "annex 1, read through annex 2 -> 0x"
              << std::hex << read << std::dec
              << (read == 0xaaaa ? " (STALE — the Sec. 3.4 hazard)"
                                 : " (fresh)")
              << "\n";
    rows.push_back(
        check("synonym read is stale", read == 0xaaaa, exact(1)));
    return rows;
}

// ---------------------------------------------------------------
// §8 and the ablations

/** Figure 9: EM3D us per edge vs. % remote edges for the six
 *  versions, on 32 PEs with the paper's kernel graph (500 nodes of
 *  degree 20 per PE), or the small graph when @p quick. @p observe
 *  reruns one cell with counter / trace reports. */
Landmarks
fig9Em3d(bool quick, const probes::ObsConfig &observe)
{
    em3d::Config cfg;
    std::uint32_t pes = 32;
    if (quick) {
        cfg.nodesPerPe = 100;
        cfg.degree = 8;
        pes = 8;
    }

    std::cout << "Figure 9: EM3D time per edge (us), " << cfg.nodesPerPe
              << " nodes/PE of degree " << cfg.degree << " on " << pes
              << " PEs\n";

    probes::Table t({"% remote", "Simple", "Bundle", "Unroll", "Get",
                     "Put", "Bulk"});
    double all_local_bulk = 0;
    for (double f : {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
        cfg.remoteFraction = f;
        std::array<double, 6> us;
        for (std::size_t i = 0; i < us.size(); ++i)
            us[i] = em3d::run(cfg, em3d::allVersions[i], pes).usPerEdge;
        if (f == 0.0)
            all_local_bulk = us[5];
        t.addRow(int(f * 100), fixed(us[0], 3), fixed(us[1], 3),
                 fixed(us[2], 3), fixed(us[3], 3), fixed(us[4], 3),
                 fixed(us[5], 3));
    }
    t.print();

    std::cout << "paper landmarks (Sec. 8): 0.37 us/edge all-local "
                 "(5.5 MFlops/PE);\n"
              << "ordering at higher remote fractions: Simple > Bundle > "
                 "Unroll > Get > Put > Bulk\n";

    if (observe.counters || observe.trace) {
        // Rerun one representative cell (20% remote, Bulk -- the
        // paper's headline configuration) with observability on and
        // dump the reports. Counter bumps never perturb simulated
        // timing, so the cell reproduces the sweep's number exactly.
        cfg.remoteFraction = 0.2;
        machine::MachineConfig mc = machine::MachineConfig::t3d(pes);
        mc.observe = observe;
        const auto r = em3d::run(cfg, em3d::Version::Bulk, mc);
        std::printf("\nobserved rerun (20%% remote, Bulk): %.3f "
                    "us/edge over %llu cycles\n",
                    r.usPerEdge, static_cast<unsigned long long>(r.elapsed));
        if (observe.counters)
            std::cout << "counters -> " << observe.countersPath << "\n";
        if (observe.trace)
            std::cout << "trace    -> " << observe.tracePath
                      << " (load in https://ui.perfetto.dev)\n";
    }
    return {check("all-local Bulk (us/edge)", all_local_bulk,
                  composite(0.37))};
}

/** The small EM3D graph of the ablations: 100 nodes/PE, degree 8. */
em3d::Config
smallGraph(double remote)
{
    em3d::Config cfg;
    cfg.nodesPerPe = 100;
    cfg.degree = 8;
    cfg.remoteFraction = remote;
    return cfg;
}

/** Ablation: §5.2 finds 16 prefetch-queue entries reasonable because
 *  the remote latency is almost hidden as groups approach 16. Sweeps
 *  the depth for full-queue groups and for EM3D's Get version. */
Landmarks
ablPrefetchDepth()
{
    std::cout << "Ablation: prefetch queue depth (Sec. 5.2 sizes the "
                 "hardware FIFO at 16)\n";

    probes::Table t({"queue depth", "group cost (cy/elem)",
                     "EM3D Get (us/edge, 50% remote)"});
    double at16 = 0;
    for (unsigned slots : {2u, 4u, 8u, 16u, 32u, 64u}) {
        machine::MachineConfig mc = machine::MachineConfig::t3d(2);
        mc.shell.prefetchSlots = slots;
        const double cost = prefetchGroupCycles(slots, 8, mc);
        mc = machine::MachineConfig::t3d(8);
        mc.shell.prefetchSlots = slots;
        const double get_us =
            em3d::run(smallGraph(0.5), em3d::Version::Get, mc).usPerEdge;
        if (slots == 16)
            at16 = cost;
        t.addRow(slots, cost, fixed(get_us, 3));
    }
    t.print();

    std::cout << "expected: cost falls steeply up to ~16 entries (the pop "
                 "cost begins to dominate),\nthen flattens — the round "
                 "trip is already hidden, matching the paper's judgement "
                 "that 16 is reasonable.\n";
    return {check("group cost at depth 16", at16, calibrated(31))};
}

/** Ablation: §3.4 finds "no clear performance advantage" for a hashed
 *  annex table over one reloaded register; runs EM3D's
 *  communication-heavy versions under both policies. */
Landmarks
ablAnnexPolicy()
{
    std::cout << "Ablation: annex policy under EM3D (Sec. 3.4: no "
                 "clear performance advantage)\n";

    auto run = [](em3d::Version v, AnnexPolicy policy, double remote) {
        splitc::SplitcConfig sc;
        sc.annexPolicy = policy;
        return em3d::run(smallGraph(remote), v, 8, sc).usPerEdge;
    };
    probes::Table t({"version / % remote", "single register (us/edge)",
                     "hashed table (us/edge)", "ratio"});
    Landmarks rows;
    for (em3d::Version v :
         {em3d::Version::Bundle, em3d::Version::Get, em3d::Version::Put}) {
        for (double remote : {0.3, 0.8}) {
            const double single = run(v, AnnexPolicy::SingleReload, remote);
            const double hashed = run(v, AnnexPolicy::HashedTable, remote);
            const std::string label = std::string(em3d::versionName(v)) +
                " / " + std::to_string(int(remote * 100)) + "%";
            t.addRow(label, fixed(single, 3), fixed(hashed, 3),
                     fixed(single / hashed, 2));
            rows.push_back(
                check(label + " ratio", single / hashed, kAnnexPolicy));
        }
    }
    t.print();

    std::cout << "expected: ratios within ~15% of 1.0 either way — "
                 "the table's lookup eats its savings, reproducing "
                 "the paper's conclusion that one register suffices.\n";
    return rows;
}

/** Steady-state cycles per line-distinct non-blocking remote write
 *  through an injection window of @p window writes. */
double
storeCost(unsigned window, std::uint64_t stride)
{
    machine::MachineConfig cfg = machine::MachineConfig::t3d(2);
    cfg.shell.writeWindow = window;
    AdjacentPair pair(ReadMode::Uncached, cfg);
    machine::Node &n0 = pair.n0;
    const Addr base = alpha::makeAnnexedVa(1, 0);

    for (int i = 0; i < 32; ++i) // warm up
        n0.storeU64(base + stride * i, i);
    const Cycles t0 = n0.clock().now();
    const int n = 128;
    for (int i = 0; i < n; ++i)
        n0.storeU64(base + 0x100000 + stride * i, i);
    const double cost = double(n0.clock().now() - t0) / n;
    n0.waitRemoteWrites();
    return cost;
}

/** Ablation: the shell's injection window bounds the remote writes
 *  in flight (modeled at 4). A window of 1 serializes every store on
 *  the remote memory; §5.3's 17 cycles per write pins the operating
 *  point. */
Landmarks
ablWriteWindow()
{
    std::cout << "Ablation: remote-write injection window (modeled "
                 "at 4; Sec. 5.3 measures 17 cy/write in-page)\n";

    probes::Table t({"window", "in-page (cy/write)",
                     "off-page 16K stride (cy/write)"});
    double at4 = 0;
    for (unsigned window : {1u, 2u, 4u, 8u, 16u}) {
        const double in_page = storeCost(window, 32);
        if (window == 4)
            at4 = in_page;
        t.addRow(window, in_page, storeCost(window, 16 * KiB));
    }
    t.print();

    std::cout << "expected: window 1 exposes the full remote service "
                 "latency; from ~4 the in-page\ncost settles at the "
                 "injection interval (17 cy) while off-page strides stay "
                 "service-bound.\n";
    return {check("in-page cost at window 4", at4, calibrated(17))};
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv,
                   "usage: t3d-paper [--only NAME] [--quick]"
                   " [--counters[=PATH]] [--trace[=PATH]]\n");
    std::string only;
    args.value("--only", only);
    const bool quick = args.flag("--quick");
    probes::ObsConfig observe;
    observe.counters = args.optionalValue(
        "--counters", observe.countersPath, "fig9.counters.json");
    observe.trace = args.optionalValue("--trace", observe.tracePath,
                                       "fig9.trace.json");
    args.done();

    // The registry, in paper order.
    const std::pair<std::string_view, std::function<Landmarks()>>
        experiments[] = {
            {"fig1_local_read", fig1LocalRead},
            {"fig2_local_write", fig2LocalWrite},
            {"tab_node_params", tabNodeParams},
            {"fig4_remote_read", fig4RemoteRead},
            {"fig5_remote_write", fig5RemoteWrite},
            {"fig6_prefetch", fig6Prefetch},
            {"tab_prefetch_breakdown", tabPrefetchBreakdown},
            {"fig7_nb_write", fig7NbWrite},
            {"fig8_bulk", fig8Bulk},
            {"tab_bulk_crossover", tabBulkCrossover},
            {"tab_messaging", tabMessaging},
            {"tab_annex", tabAnnex},
            {"fig9_em3d", [&] { return fig9Em3d(quick, observe); }},
            {"abl_prefetch_depth", ablPrefetchDepth},
            {"abl_annex_policy", ablAnnexPolicy},
            {"abl_write_window", ablWriteWindow},
        };

    std::string known;
    bool found = only.empty();
    for (const auto &[name, run] : experiments) {
        known += "\n  " + std::string(name);
        found = found || name == only;
    }
    if (!found)
        args.fail("unknown experiment '" + only + "'; known:" + known);
    if ((quick || observe.counters || observe.trace) && only != "fig9_em3d")
        args.fail("--quick, --counters and --trace need --only fig9_em3d");

    std::vector<std::string> failures;
    for (const auto &[name, run] : experiments) {
        if (!only.empty() && name != only)
            continue;
        for (const Landmark &l : run()) {
            if (!fails(l))
                continue;
            std::ostringstream os;
            os << "landmark failed: " << name << ": " << l.label
               << ": model " << l.value;
            if (l.band)
                os << ", expected " << l.band->expect << " +-"
                   << l.band->tolerance * 100 << "%";
            failures.push_back(os.str());
        }
    }
    std::cout.flush();
    for (const std::string &f : failures)
        std::cerr << f << "\n";
    return failures.empty() ? 0 : 1;
}
