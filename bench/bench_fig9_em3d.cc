/**
 * @file
 * Figure 9: EM3D microseconds per edge vs. percentage of remote
 * edges, for the six program versions, on 32 PEs with the paper's
 * synthetic kernel graph (500 nodes of degree 20 per processor;
 * 16,000 nodes total).
 *
 * Usage: bench_fig9_em3d [--quick] [--counters[=PATH]] [--trace[=PATH]]
 *   --quick shrinks the graph (100 nodes/PE, degree 8, 8 PEs) so the
 *   bench finishes in seconds; the full run matches the paper's
 *   parameters.
 *   --counters / --trace enable the observability layer for the last
 *   cell of the sweep (100% remote, Bulk) and write the counter /
 *   Chrome-trace reports to PATH (defaults: fig9.counters.json,
 *   fig9.trace.json). The same switches are available for any run via
 *   the T3DSIM_COUNTERS / T3DSIM_TRACE environment variables; either
 *   way the simulated timing is unchanged.
 */

#include <array>
#include <cstdio>
#include <iostream>
#include <string>

#include "em3d/em3d.hh"
#include "machine/config.hh"
#include "probes/table.hh"

#include "cli.hh"

using namespace t3dsim;

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv,
                   "usage: bench_fig9_em3d [--quick] [--counters[=PATH]]"
                   " [--trace[=PATH]]\n");
    const bool quick = args.flag("--quick");
    probes::ObsConfig observe;
    observe.counters = args.optionalValue(
        "--counters", observe.countersPath, "fig9.counters.json");
    observe.trace = args.optionalValue("--trace", observe.tracePath,
                                       "fig9.trace.json");
    args.done();

    em3d::Config cfg;
    std::uint32_t pes = 32;
    if (quick) {
        cfg.nodesPerPe = 100;
        cfg.degree = 8;
        pes = 8;
    }

    std::cout << "Figure 9: EM3D time per edge (us), "
              << cfg.nodesPerPe << " nodes/PE of degree " << cfg.degree
              << " on " << pes << " PEs\n";

    probes::Table t({"% remote", "Simple", "Bundle", "Unroll", "Get",
                     "Put", "Bulk"});
    const double fractions[] = {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
    for (double f : fractions) {
        cfg.remoteFraction = f;
        std::array<std::string, 6> us;
        int i = 0;
        for (em3d::Version v : em3d::allVersions) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f",
                          em3d::run(cfg, v, pes).usPerEdge);
            us[i++] = buf;
        }
        t.addRow(int(f * 100), us[0], us[1], us[2], us[3], us[4],
                 us[5]);
    }
    t.print();

    std::cout
        << "paper landmarks (Sec. 8): 0.37 us/edge all-local "
           "(5.5 MFlops/PE);\n"
        << "ordering at higher remote fractions: Simple > Bundle > "
           "Unroll > Get > Put > Bulk\n";

    if (observe.counters || observe.trace) {
        // Rerun one representative cell (20% remote, Bulk — the
        // paper's headline configuration) with observability on and
        // dump the reports. Counter bumps never perturb simulated
        // timing, so the cell reproduces the sweep's number exactly.
        cfg.remoteFraction = 0.2;
        machine::MachineConfig mc = machine::MachineConfig::t3d(pes);
        mc.observe = observe;
        const auto r = em3d::run(cfg, em3d::Version::Bulk, mc);
        std::printf("\nobserved rerun (20%% remote, Bulk): %.3f "
                    "us/edge over %llu cycles\n",
                    r.usPerEdge,
                    static_cast<unsigned long long>(r.elapsed));
        if (observe.counters)
            std::cout << "counters -> " << observe.countersPath
                      << "\n";
        if (observe.trace)
            std::cout << "trace    -> " << observe.tracePath
                      << " (load in https://ui.perfetto.dev)\n";
    }
    return 0;
}
