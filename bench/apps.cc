/**
 * @file
 * `t3d-apps` -- the application ladders beyond the paper
 * (docs/APPS.md): bsort and qcd, each in the five-rung ladder at 32
 * and 256 PEs with the full per-rung counter breakdown, its own
 * paper-figure ablation, and the counters-on/off differential every
 * app must pass before its numbers are worth publishing. Each app
 * writes BENCH_app_<name>.json to the working directory. EM3D's
 * ladder is Figure 9 and runs in t3d-paper.
 *
 * Usage: t3d-apps [--only NAME] [--quick]
 *   With no arguments both apps run, in registry order; --only runs
 *   one. --quick runs 32 PEs only at the app's smoke size (CI). The
 *   exit status is 1 if any run failed the app's own check, the
 *   differential diverged or a report could not be written.
 */

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "model/validate.hh"
#include "probes/counters.hh"
#include "sim/json_writer.hh"

#include "cli.hh"

using namespace t3dsim;

namespace
{

/** An app's paper-figure ablation: one row of named integer columns
 *  per point, written as the report member @c name. */
struct Ablation
{
    std::string name;
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>> rows;
};

/** One app's ladder bench at its bench size. */
struct Bench
{
    apps::App app;

    /** Writes the app's config as one JSON object. */
    std::function<void(sim::JsonWriter &)> writeConfig;

    /** Runs and prints the ablation; clears ok on a failed run. */
    std::function<Ablation(bool &ok)> ablation;
};

// ---------------------------------------------------------------
// bsort

/**
 * BLT-crossover ablation (Bulk rung, 32 PEs). Sweeping
 * SplitcConfig::bulkGetBltCrossoverBytes across the per-producer run
 * size flips the exchange between prefetch pipelining and the BLT;
 * the elapsed curve locates the real crossover, to compare against
 * the Fig. 8 microbenchmark.
 */
Ablation
bsortCrossover(const apps::bsort::Config &cfg, bool &ok)
{
    Ablation abl{"blt_crossover", {}};
    for (std::uint32_t bytes : {256, 1024, 4096, 7900, 16384, 65536}) {
        splitc::SplitcConfig sc;
        sc.bulkGetBltCrossoverBytes = bytes;
        const apps::bsort::Result r = apps::bsort::run(
            cfg, apps::Variant::Bulk, model::countedT3d(32), sc);
        if (!r.sorted) {
            std::cerr << "FAIL: crossover=" << bytes
                      << " did not sort\n";
            ok = false;
        }
        const probes::PerfCounters &c = r.counters;
        std::cout << "crossover bytes=" << bytes
                  << " sim_cycles=" << r.elapsed
                  << " blt_transfers=" << c.bltTransfers << "\n";
        abl.rows.push_back({{"crossover_bytes", bytes},
                            {"sim_cycles", r.elapsed},
                            {"blt_transfers", c.bltTransfers},
                            {"prefetch_issues", c.prefetchIssues}});
    }
    return abl;
}

/** BSP sample+radix sort. Full size is ~64 KiB of keys per PE's
 *  receive block at 32 PEs, so the Bulk rung's per-producer runs
 *  straddle the BLT crossover; quick keeps the smoke ladder under a
 *  second. */
Bench
bsortBench(bool quick)
{
    apps::bsort::Config cfg;
    cfg.keysPerPe = quick ? 256 : 4096;
    return {apps::bsort::app(cfg),
            [cfg](sim::JsonWriter &w) {
                w.beginObject().member("keys_per_pe", cfg.keysPerPe);
                w.member("oversample", cfg.oversample);
                w.member("seed", cfg.seed);
                w.member("radix_bits", cfg.radixBits).endObject();
            },
            [cfg](bool &ok) { return bsortCrossover(cfg, ok); }};
}

// ---------------------------------------------------------------
// qcd

/**
 * Prefetch-depth ablation (Get rung, 32 PEs). The face fill issues a
 * stream of same-producer gets; shrinking ShellConfig::prefetchSlots
 * throttles the pipeline (Fig. 6's depth story) and
 * prefetchFullStalls counts the back-pressure.
 */
Ablation
qcdDepth(const apps::qcd::Config &cfg, bool &ok)
{
    Ablation abl{"prefetch_depth", {}};
    for (std::uint32_t slots : {1, 2, 4, 8, 16, 32}) {
        machine::MachineConfig mc = model::countedT3d(32);
        mc.shell.prefetchSlots = slots;
        const apps::qcd::Result r =
            apps::qcd::run(cfg, apps::Variant::Get, mc);
        if (!r.converged) {
            std::cerr << "FAIL: prefetch_slots=" << slots
                      << " did not match the reference\n";
            ok = false;
        }
        const probes::PerfCounters &c = r.counters;
        std::cout << "depth slots=" << slots
                  << " sim_cycles=" << r.elapsed
                  << " full_stalls=" << c.prefetchFullStalls << "\n";
        abl.rows.push_back({{"prefetch_slots", slots},
                            {"sim_cycles", r.elapsed},
                            {"prefetch_issues", c.prefetchIssues},
                            {"prefetch_full_stalls",
                             c.prefetchFullStalls}});
    }
    return abl;
}

/** QCD 4-D even/odd lattice relaxation: 4^4 sites per PE and two
 *  sweeps, or 2^4 and one sweep quick. */
Bench
qcdBench(bool quick)
{
    apps::qcd::Config cfg;
    cfg.lx = cfg.ly = cfg.lz = cfg.lt = quick ? 2 : 4;
    cfg.sweeps = quick ? 1 : 2;
    return {apps::qcd::app(cfg),
            [cfg](sim::JsonWriter &w) {
                w.beginObject().member("lx", cfg.lx).member("ly", cfg.ly);
                w.member("lz", cfg.lz).member("lt", cfg.lt);
                w.member("sweeps", cfg.sweeps).member("omega", cfg.omega);
                w.member("seed", cfg.seed).endObject();
            },
            [cfg](bool &ok) { return qcdDepth(cfg, ok); }};
}

// ---------------------------------------------------------------
// The bench

/**
 * The determinism contract behind every published number: each rung
 * run with counters off must finish at the same simulated cycle, with
 * the same checksum and verdict, as its counters-on run at 32 PEs
 * (the first rungs of @p ladder).
 *
 * @return true if every rung agreed; diagnostics go to stderr.
 */
bool
countersOffAgrees(const apps::App &app,
                  const std::vector<model::LadderPoint> &ladder)
{
    const std::vector<model::LadderPoint> off =
        model::runLadder(app, machine::MachineConfig::t3d(32));
    bool ok = true;
    for (std::size_t i = 0; i < off.size(); ++i) {
        const apps::RungResult &on = ladder[i].result, &r = off[i].result;
        if (r.elapsed != on.elapsed || r.checksum != on.checksum ||
            r.valid != on.valid) {
            std::cerr << "FAIL " << app.name << "/" << app.rungs[i]
                      << ": counters off diverged (cycles " << r.elapsed
                      << " vs " << on.elapsed << ", checksum "
                      << r.checksum << " vs " << on.checksum << ")\n";
            ok = false;
        }
    }
    return ok;
}

/** Write the ladder as the report's "ladder" member; perUnit goes
 *  under us_per_<unit>. */
void
writeLadderJson(sim::JsonWriter &w, const apps::App &app,
                const std::vector<model::LadderPoint> &ladder)
{
    std::string per_unit_key = "us_per_" + app.unit;
    for (char &c : per_unit_key)
        c = c == '-' ? '_' : c;
    w.key("ladder").beginArray(sim::JsonWriter::Layout::Lines);
    for (const model::LadderPoint &pt : ladder) {
        const apps::RungResult &r = pt.result;
        w.beginObject().member("variant", pt.sig.rung);
        w.member("pes", std::uint32_t(pt.sig.pes));
        w.member("sim_cycles", r.elapsed);
        w.member(per_unit_key, r.perUnit).key("checksum");
        r.checksum.visit([&w](auto v) { w.value(v); });
        w.member("valid", r.valid);
        if (r.countersValid) {
            w.key("counters");
            probes::writeCounterObject(w, r.counters);
        }
        w.endObject();
    }
    w.endArray();
}

/**
 * One app's whole bench: the ladder at 32 (and, unless quick, 256)
 * PEs with counters, then the ablation, then the differential
 * against the 32-PE ladder, then BENCH_app_<name>.json.
 *
 * @return true if every run passed the app's own check, the
 *         differential agreed and the report was written.
 */
bool
runBench(const Bench &bench, bool quick)
{
    using Layout = sim::JsonWriter::Layout;
    const apps::App &app = bench.app;
    std::vector<model::LadderPoint> ladder;
    for (std::uint32_t pes :
         quick ? std::vector{32u} : std::vector{32u, 256u}) {
        for (model::LadderPoint &pt :
             model::runLadder(app, model::countedT3d(pes))) {
            std::cout << "ladder " << pt.sig.rung << " pes=" << pes
                      << " sim_cycles=" << pt.result.elapsed << " us/"
                      << app.unit << "=" << pt.result.perUnit << "\n";
            ladder.push_back(std::move(pt));
        }
    }
    bool ok = model::allRungsValid(ladder, std::cerr);
    const Ablation abl = bench.ablation(ok);

    const bool differential_ok = countersOffAgrees(app, ladder);
    ok &= differential_ok;
    std::cout << "differential "
              << (differential_ok ? "ok" : "DIVERGED") << "\n";

    const std::string path = "BENCH_app_" + app.name + ".json";
    // A stream that failed to open ignores the writes; checked below.
    std::ofstream os(path);
    sim::JsonWriter w(os);
    w.beginObject(Layout::Lines).member("bench", "app_" + app.name);
    w.member("quick", quick).key("config");
    bench.writeConfig(w);
    writeLadderJson(w, app, ladder);
    w.key(abl.name).beginArray(Layout::Lines);
    for (const auto &row : abl.rows) {
        w.beginObject();
        for (const auto &[name, value] : row)
            w.member(name, value);
        w.endObject();
    }
    w.endArray().key("differential").beginObject().member("pes", 32);
    w.member("counters_modes", 2).member("ok", differential_ok);
    w.endObject().endObject();
    if (!os) {
        std::cerr << "error: could not write " << path << "\n";
        return false;
    }
    std::cout << "wrote " << path << "\n";
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv, "usage: t3d-apps [--only NAME] [--quick]\n");
    std::string only;
    args.value("--only", only);
    const bool quick = args.flag("--quick");
    args.done();

    // The registry, in report order.
    const std::pair<std::string_view, Bench (*)(bool quick)> benches[] = {
        {"bsort", bsortBench},
        {"qcd", qcdBench},
    };

    std::string known;
    bool found = only.empty();
    for (const auto &[name, make] : benches) {
        known += "\n  " + std::string(name);
        found = found || name == only;
    }
    if (!found)
        args.fail("unknown app '" + only + "'; known:" + known);

    bool ok = true;
    for (const auto &[name, make] : benches) {
        if (only.empty() || name == only)
            ok &= runBench(make(quick), quick);
    }
    return ok ? 0 : 1;
}
