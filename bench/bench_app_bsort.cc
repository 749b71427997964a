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
#include <iostream>

#include "app_bench.hh"
#include "apps/bsort/bsort.hh"

using namespace t3dsim;

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

/**
 * BLT-crossover ablation (Bulk rung, 32 PEs). Sweeping
 * SplitcConfig::bulkGetBltCrossoverBytes across the per-producer run
 * size flips the exchange between prefetch pipelining and the BLT;
 * the elapsed curve locates the real crossover, to compare against
 * the Fig. 8 microbenchmark.
 */
appbench::Ablation
crossoverAblation(const apps::bsort::Config &cfg, bool &ok)
{
    appbench::Ablation abl{"blt_crossover", {}};
    for (std::uint32_t bytes : {256, 1024, 4096, 7900, 16384, 65536}) {
        splitc::SplitcConfig sc;
        sc.bulkGetBltCrossoverBytes = bytes;
        const apps::bsort::Result r = apps::bsort::run(
            cfg, apps::Variant::Bulk, appbench::countedMachine(32), sc);
        if (!r.sorted) {
            std::cerr << "FAIL: crossover=" << bytes
                      << " did not sort\n";
            ok = false;
        }
        const std::uint64_t blt =
            r.countersValid ? r.counters.bltTransfers : 0;
        const std::uint64_t prefetch =
            r.countersValid ? r.counters.prefetchIssues : 0;
        std::cout << "crossover bytes=" << bytes
                  << " sim_cycles=" << r.elapsed
                  << " blt_transfers=" << blt << "\n";
        abl.rows.push_back({{"crossover_bytes", bytes},
                            {"sim_cycles", r.elapsed},
                            {"blt_transfers", blt},
                            {"prefetch_issues", prefetch}});
    }
    return abl;
}

} // namespace

int
main(int argc, char **argv)
{
    const appbench::Options opt =
        appbench::parseOptions(argc, argv, "BENCH_app_bsort.json");
    const apps::bsort::Config cfg = benchConfig(opt.quick);
    return appbench::runBench(
        apps::bsort::app(cfg), opt,
        [&](sim::JsonWriter &w) {
            w.beginObject().member("keys_per_pe", cfg.keysPerPe);
            w.member("oversample", cfg.oversample).member("seed", cfg.seed);
            w.member("radix_bits", cfg.radixBits).endObject();
        },
        [&](bool &ok) { return crossoverAblation(cfg, ok); });
}
