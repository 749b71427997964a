/**
 * @file
 * BSP sample+radix sort sweep (docs/APPS.md): the five-rung variant
 * ladder at 32 and 256 PEs with full per-variant counter breakdowns,
 * a BLT-crossover ablation on the Bulk rung (the §6.3 story replayed
 * through an application's all-to-all instead of a microbenchmark),
 * and the counters-on/off differential. Writes BENCH_app_bsort.json;
 * exits non-zero if any run fails validation or the differential
 * diverges.
 *
 * --quick   32 PEs only, smaller keys (the CI smoke configuration).
 * --out=F   output path (default BENCH_app_bsort.json).
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app_bench.hh"
#include "apps/bsort/bsort.hh"
#include "machine/machine.hh"

using namespace t3dsim;
using apps::Variant;

namespace
{

apps::bsort::Config
benchConfig(bool quick)
{
    apps::bsort::Config cfg;
    // Full size: ~64 KiB of keys per PE's receive block at 32 PEs,
    // so the Bulk rung's per-producer runs straddle the BLT
    // crossover. Quick keeps the smoke ladder under a second.
    cfg.keysPerPe = quick ? 256 : 4096;
    return cfg;
}

appbench::LadderRow
toRow(const apps::bsort::Result &r, std::uint32_t pes)
{
    appbench::LadderRow row;
    row.variant = apps::variantName(r.variant);
    row.pes = pes;
    row.simCycles = r.elapsed;
    row.perUnit = r.usPerKey;
    row.checksum = r.checksum;
    row.valid = r.sorted;
    row.counters = r.counters;
    row.countersValid = r.countersValid;
    return row;
}

/** One crossover-ablation measurement on the Bulk rung. */
struct CrossoverRow
{
    std::uint32_t crossoverBytes = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t bltTransfers = 0;
    std::uint64_t prefetchIssues = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path = "BENCH_app_bsort.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
    }

    const apps::bsort::Config cfg = benchConfig(quick);
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
            const apps::bsort::Result r = apps::bsort::run(cfg, v, mc);
            if (!r.sorted) {
                std::cerr << "FAIL: " << apps::variantName(v) << " @ "
                          << pes << " PEs did not sort\n";
                ok = false;
            }
            std::cout << "ladder " << apps::variantName(v) << " pes="
                      << pes << " sim_cycles=" << r.elapsed
                      << " us/key=" << r.usPerKey << "\n";
            ladder.push_back(toRow(r, pes));
        }
    }

    // ---- BLT-crossover ablation (Bulk rung, smallest PE count) ----
    // Sweeping SplitcConfig::bulkGetBltCrossoverBytes across the
    // per-producer run size flips the exchange between prefetch
    // pipelining and the BLT; the elapsed curve locates the real
    // crossover, to compare against the Fig. 8 microbenchmark.
    std::vector<CrossoverRow> crossover;
    {
        machine::MachineConfig mc = machine::MachineConfig::t3d(32);
        mc.observe.counters = true;
        for (std::uint32_t bytes :
             {256u, 1024u, 4096u, 7900u, 16384u, 65536u}) {
            splitc::SplitcConfig sc;
            sc.bulkGetBltCrossoverBytes = bytes;
            const apps::bsort::Result r =
                apps::bsort::run(cfg, Variant::Bulk, mc, sc);
            if (!r.sorted) {
                std::cerr << "FAIL: crossover=" << bytes
                          << " did not sort\n";
                ok = false;
            }
            CrossoverRow row;
            row.crossoverBytes = bytes;
            row.simCycles = r.elapsed;
            if (r.countersValid) {
                row.bltTransfers = r.counters.bltTransfers;
                row.prefetchIssues = r.counters.prefetchIssues;
            }
            std::cout << "crossover bytes=" << bytes
                      << " sim_cycles=" << r.elapsed
                      << " blt_transfers=" << row.bltTransfers << "\n";
            crossover.push_back(row);
        }
    }

    // ---- Counters-on/off differential ----
    bool differential_ok = true;
    for (Variant v : apps::allVariants) {
        const std::string label =
            std::string("bsort/") + apps::variantName(v);
        differential_ok &= appbench::runDifferential(
            label.c_str(),
            [&](bool counters) {
                machine::MachineConfig mc =
                    machine::MachineConfig::t3d(32);
                mc.observe.counters = counters;
                return toRow(apps::bsort::run(cfg, v, mc), 32);
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
       << "  \"bench\": \"app_bsort\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"config\": {\"keys_per_pe\": " << cfg.keysPerPe
       << ", \"oversample\": " << cfg.oversample
       << ", \"seed\": " << cfg.seed
       << ", \"radix_bits\": " << cfg.radixBits << "},\n";
    appbench::writeLadderJson(os, ladder, "us_per_key");
    os << ",\n  \"blt_crossover\": [\n";
    for (std::size_t i = 0; i < crossover.size(); ++i) {
        const CrossoverRow &c = crossover[i];
        os << "    {\"crossover_bytes\": " << c.crossoverBytes
           << ", \"sim_cycles\": " << c.simCycles
           << ", \"blt_transfers\": " << c.bltTransfers
           << ", \"prefetch_issues\": " << c.prefetchIssues << "}"
           << (i + 1 < crossover.size() ? "," : "") << "\n";
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
