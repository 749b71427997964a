/**
 * @file
 * Figure 1: local read latency vs. stride for array sizes 4 KB-8 MB,
 * on the T3D node (left) and the DEC Alpha workstation (right).
 *
 * Reveals: the 8 KB direct-mapped L1 and its 32-byte lines, the
 * 145 ns memory access, the 16 KB DRAM-page and 64 KB bank effects,
 * the absence of an L2 and of TLB costs on the T3D; and the L1/L2/
 * memory bands plus the 8 KB-stride TLB inflection on the
 * workstation.
 *
 * Usage: bench_fig1_local_read [--machine=t3d|workstation|both]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "machine/machine.hh"
#include "machine/workstation.hh"
#include "probes/stride.hh"

#include "cli.hh"
#include "profile.hh"
#include "probes/table.hh"

using namespace t3dsim;

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv,
                   "usage: bench_fig1_local_read"
                   " [--machine=t3d|workstation|both]\n");
    std::string which = "both";
    args.value("--machine", which);
    args.done();

    std::cout << "Figure 1: local memory read latency (sawtooth "
                 "stride probe, ns per read)\n";

    if (which == "t3d" || which == "both") {
        machine::Machine m(machine::MachineConfig::t3d(2));
        auto &node = m.node(0);
        auto points = probes::strideProbe(
            [&](Addr a) { node.core().loadU64(a); },
            [&] { return node.clock().now(); },
            0, 4 * KiB, 8 * MiB);
        bench::printProfile("CRAY-T3D node", points);

        probes::Table key({"landmark", "model", "paper (Sec. 2.2)"});
        auto at = [&](std::uint64_t a, std::uint64_t s) {
            const auto *p = probes::findPoint(points, a, s);
            return p ? p->avgNsPerOp : -1.0;
        };
        key.addRow("cache hit (<=8K array)", at(8 * KiB, 8),
                   "6.67 ns");
        key.addRow("memory access (64K/32)", at(64 * KiB, 32),
                   "145 ns (22 cy)");
        key.addRow("off-page (1M/16K)", at(1 * MiB, 16 * KiB),
                   "205 ns (31 cy)");
        key.addRow("same-bank (1M/64K)", at(1 * MiB, 64 * KiB),
                   "264 ns (40 cy)");
        key.print();
    }

    if (which == "workstation" || which == "both") {
        machine::Workstation ws;
        auto points = probes::strideProbe(
            [&](Addr a) { ws.loadU64(a); },
            [&] { return ws.clock().now(); },
            0, 4 * KiB, 8 * MiB);
        bench::printProfile("DEC Alpha workstation", points);

        probes::Table key({"landmark", "model", "paper (Sec. 2.2)"});
        auto at = [&](std::uint64_t a, std::uint64_t s) {
            const auto *p = probes::findPoint(points, a, s);
            return p ? p->avgNsPerOp : -1.0;
        };
        key.addRow("L1 band (8K/8)", at(8 * KiB, 8), "6.67 ns");
        key.addRow("L2 band (256K/32)", at(256 * KiB, 32),
                   "~60 ns");
        key.addRow("memory band (8M/32)", at(8 * MiB, 32),
                   "300 ns (45 cy)");
        key.addRow("TLB inflection (8M/8K)", at(8 * MiB, 8 * KiB),
                   "rise at 8 KB page size");
        key.print();
    }

    return 0;
}
