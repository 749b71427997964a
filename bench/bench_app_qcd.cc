/**
 * @file
 * QCD lattice relaxation sweep (docs/APPS.md): the five-rung variant
 * ladder at 32 and 256 PEs with full per-variant counter breakdowns,
 * a prefetch-depth ablation on the Get rung (the Fig. 6 pipeline
 * story replayed through a face exchange instead of a
 * microbenchmark), and the counters-on/off differential. Writes
 * BENCH_app_qcd.json; exits non-zero if any run fails validation or
 * the differential diverges.
 *
 * --quick   32 PEs only, 2^4 local lattice (the CI smoke config).
 * --out=F   output path (default BENCH_app_qcd.json).
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app_bench.hh"
#include "apps/qcd/qcd.hh"
#include "machine/machine.hh"

using namespace t3dsim;
using apps::Variant;

namespace
{

apps::qcd::Config
benchConfig(bool quick)
{
    apps::qcd::Config cfg;
    if (quick) {
        cfg.lx = cfg.ly = cfg.lz = cfg.lt = 2;
        cfg.sweeps = 1;
    } else {
        cfg.lx = cfg.ly = cfg.lz = cfg.lt = 4;
        cfg.sweeps = 2;
    }
    return cfg;
}

appbench::LadderRow
toRow(const apps::qcd::Result &r, std::uint32_t pes)
{
    appbench::LadderRow row;
    row.variant = apps::variantName(r.variant);
    row.pes = pes;
    row.simCycles = r.elapsed;
    row.perUnit = r.usPerSiteUpdate;
    row.checksum = r.checksum;
    row.valid = r.converged;
    row.counters = r.counters;
    row.countersValid = r.countersValid;
    return row;
}

/** One prefetch-depth ablation measurement on the Get rung. */
struct DepthRow
{
    std::uint32_t prefetchSlots = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t prefetchIssues = 0;
    std::uint64_t prefetchFullStalls = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path = "BENCH_app_qcd.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
    }

    const apps::qcd::Config cfg = benchConfig(quick);
    const std::vector<std::uint32_t> pe_counts =
        quick ? std::vector<std::uint32_t>{32}
              : std::vector<std::uint32_t>{32, 256};

    bool ok = true;

    // ---- Variant ladder with counters ----
    std::vector<appbench::LadderRow> ladder;
    for (std::uint32_t pes : pe_counts) {
        for (Variant v : apps::allVariants) {
            machine::MachineConfig mc = machine::MachineConfig::t3d(pes);
            mc.observe.counters = true;
            const apps::qcd::Result r = apps::qcd::run(cfg, v, mc);
            if (!r.converged) {
                std::cerr << "FAIL: " << apps::variantName(v) << " @ "
                          << pes
                          << " PEs did not match the reference\n";
                ok = false;
            }
            std::cout << "ladder " << apps::variantName(v) << " pes="
                      << pes << " sim_cycles=" << r.elapsed
                      << " us/site-update=" << r.usPerSiteUpdate
                      << "\n";
            ladder.push_back(toRow(r, pes));
        }
    }

    // ---- Prefetch-depth ablation (Get rung, smallest PE count) ----
    // The face fill issues a stream of same-producer gets; shrinking
    // ShellConfig::prefetchSlots throttles the pipeline (Fig. 6's
    // depth story) and prefetchFullStalls counts the back-pressure.
    std::vector<DepthRow> depth;
    for (std::uint32_t slots : {1u, 2u, 4u, 8u, 16u, 32u}) {
        machine::MachineConfig mc = machine::MachineConfig::t3d(32);
        mc.observe.counters = true;
        mc.shell.prefetchSlots = slots;
        const apps::qcd::Result r =
            apps::qcd::run(cfg, Variant::Get, mc);
        if (!r.converged) {
            std::cerr << "FAIL: prefetch_slots=" << slots
                      << " did not match the reference\n";
            ok = false;
        }
        DepthRow row;
        row.prefetchSlots = slots;
        row.simCycles = r.elapsed;
        if (r.countersValid) {
            row.prefetchIssues = r.counters.prefetchIssues;
            row.prefetchFullStalls = r.counters.prefetchFullStalls;
        }
        std::cout << "depth slots=" << slots
                  << " sim_cycles=" << r.elapsed
                  << " full_stalls=" << row.prefetchFullStalls << "\n";
        depth.push_back(row);
    }

    // ---- Counters-on/off differential ----
    bool differential_ok = true;
    for (Variant v : apps::allVariants) {
        const std::string label =
            std::string("qcd/") + apps::variantName(v);
        differential_ok &= appbench::runDifferential(
            label.c_str(),
            [&](bool counters) {
                machine::MachineConfig mc =
                    machine::MachineConfig::t3d(32);
                mc.observe.counters = counters;
                return toRow(apps::qcd::run(cfg, v, mc), 32);
            });
    }
    ok &= differential_ok;
    std::cout << "differential "
              << (differential_ok ? "ok" : "DIVERGED") << "\n";

    // ---- JSON ----
    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    os.precision(17);
    os << "{\n"
       << "  \"bench\": \"app_qcd\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"config\": {\"lx\": " << cfg.lx << ", \"ly\": " << cfg.ly
       << ", \"lz\": " << cfg.lz << ", \"lt\": " << cfg.lt
       << ", \"sweeps\": " << cfg.sweeps << ", \"omega\": ";
    os.precision(6);
    os << cfg.omega;
    os.precision(17);
    os << ", \"seed\": " << cfg.seed << "},\n";
    appbench::writeLadderJson(os, ladder, "us_per_site_update");
    os << ",\n  \"prefetch_depth\": [\n";
    for (std::size_t i = 0; i < depth.size(); ++i) {
        const DepthRow &d = depth[i];
        os << "    {\"prefetch_slots\": " << d.prefetchSlots
           << ", \"sim_cycles\": " << d.simCycles
           << ", \"prefetch_issues\": " << d.prefetchIssues
           << ", \"prefetch_full_stalls\": " << d.prefetchFullStalls
           << "}" << (i + 1 < depth.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"differential\": {\"pes\": 32, \"counters_modes\": 2, "
          "\"ok\": "
       << (differential_ok ? "true" : "false") << "}\n"
       << "}\n";
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    return ok ? 0 : 1;
}
