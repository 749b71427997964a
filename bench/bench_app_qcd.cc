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
#include <iostream>

#include "app_bench.hh"
#include "apps/qcd/qcd.hh"

using namespace t3dsim;

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

/**
 * Prefetch-depth ablation (Get rung, 32 PEs). The face fill issues a
 * stream of same-producer gets; shrinking ShellConfig::prefetchSlots
 * throttles the pipeline (Fig. 6's depth story) and
 * prefetchFullStalls counts the back-pressure.
 */
appbench::Ablation
depthAblation(const apps::qcd::Config &cfg, bool &ok)
{
    appbench::Ablation abl{"prefetch_depth", {}};
    for (std::uint32_t slots : {1, 2, 4, 8, 16, 32}) {
        machine::MachineConfig mc = appbench::countedMachine(32);
        mc.shell.prefetchSlots = slots;
        const apps::qcd::Result r =
            apps::qcd::run(cfg, apps::Variant::Get, mc);
        if (!r.converged) {
            std::cerr << "FAIL: prefetch_slots=" << slots
                      << " did not match the reference\n";
            ok = false;
        }
        const std::uint64_t issues =
            r.countersValid ? r.counters.prefetchIssues : 0;
        const std::uint64_t stalls =
            r.countersValid ? r.counters.prefetchFullStalls : 0;
        std::cout << "depth slots=" << slots
                  << " sim_cycles=" << r.elapsed
                  << " full_stalls=" << stalls << "\n";
        abl.rows.push_back({{"prefetch_slots", slots},
                            {"sim_cycles", r.elapsed},
                            {"prefetch_issues", issues},
                            {"prefetch_full_stalls", stalls}});
    }
    return abl;
}

} // namespace

int
main(int argc, char **argv)
{
    const appbench::Options opt =
        appbench::parseOptions(argc, argv, "BENCH_app_qcd.json");
    const apps::qcd::Config cfg = benchConfig(opt.quick);
    return appbench::runBench(
        apps::qcd::app(cfg), opt,
        [&](sim::JsonWriter &w) {
            w.beginObject().member("lx", cfg.lx).member("ly", cfg.ly);
            w.member("lz", cfg.lz).member("lt", cfg.lt);
            w.member("sweeps", cfg.sweeps).member("omega", cfg.omega);
            w.member("seed", cfg.seed).endObject();
        },
        [&](bool &ok) { return depthAblation(cfg, ok); });
}
