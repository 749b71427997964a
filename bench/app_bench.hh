/**
 * @file
 * The application ladder bench over one apps::App (bench_app_bsort,
 * bench_app_qcd): the ladder at 32 and 256 PEs with the full
 * per-rung counter breakdown, the app's own paper-figure ablation,
 * the counters-on/off differential every app must pass before its
 * numbers are worth publishing, and the JSON report. See
 * docs/APPS.md for the reporting contract.
 */

#ifndef T3DSIM_BENCH_APP_BENCH_HH
#define T3DSIM_BENCH_APP_BENCH_HH

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "cli.hh"
#include "machine/config.hh"
#include "probes/counters.hh"
#include "sim/json_writer.hh"

namespace t3dsim::appbench
{

/** Command line shared by the ladder benches. */
struct Options
{
    /** 32 PEs only, the app's smoke config (CI). */
    bool quick = false;

    std::string outPath;
};

/** Parse --quick and --out=F (or --out F). */
inline Options
parseOptions(int argc, char **argv, std::string default_out)
{
    cli::Args args(argc, argv,
                   "usage: " + std::string(argv[0]) +
                       " [--quick] [--out=F]\n");
    Options opt{args.flag("--quick"), std::move(default_out)};
    args.value("--out", opt.outPath);
    args.done();
    return opt;
}

/** Counter-enabled (or not) machine of @p pes PEs. */
inline machine::MachineConfig
countedMachine(std::uint32_t pes, bool counters = true)
{
    machine::MachineConfig mc = machine::MachineConfig::t3d(pes);
    mc.observe.counters = counters;
    return mc;
}

/** One (rung, PE count) measurement of an app ladder. */
struct LadderRow
{
    std::size_t rung = 0;
    std::uint32_t pes = 0;
    apps::RungResult result;
};

/** Run every rung at every PE count with counters; rows that fail
 *  the app's validation clear @p ok. */
inline std::vector<LadderRow>
runLadder(const apps::App &app, const std::vector<std::uint32_t> &pes,
          bool &ok)
{
    std::vector<LadderRow> rows;
    for (std::uint32_t p : pes) {
        for (std::size_t i = 0; i < app.rungs.size(); ++i) {
            const apps::RungResult r = app.run(i, countedMachine(p), {});
            if (!r.valid) {
                std::cerr << "FAIL: " << app.name << "/" << app.rungs[i]
                          << " @ " << p << " PEs failed validation\n";
                ok = false;
            }
            std::cout << "ladder " << app.rungs[i] << " pes=" << p
                      << " sim_cycles=" << r.elapsed << " us/"
                      << app.unit << "=" << r.perUnit << "\n";
            rows.push_back({i, p, r});
        }
    }
    return rows;
}

/** Write the ladder as the report's "ladder" member; perUnit goes
 *  under us_per_<unit>. */
inline void
writeLadderJson(sim::JsonWriter &w, const apps::App &app,
                const std::vector<LadderRow> &rows)
{
    std::string per_unit_key = "us_per_" + app.unit;
    for (char &c : per_unit_key)
        c = c == '-' ? '_' : c;
    w.key("ladder").beginArray(sim::JsonWriter::Layout::Lines);
    for (const LadderRow &row : rows) {
        const apps::RungResult &r = row.result;
        w.beginObject().member("variant", app.rungs[row.rung]);
        w.member("pes", row.pes).member("sim_cycles", r.elapsed);
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

/** An app's paper-figure ablation: one row of named integer columns
 *  per point, written as the report member @c name. */
struct Ablation
{
    std::string name;
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>> rows;
};

/**
 * The determinism contract behind every published number: each rung
 * run with counters on and with counters off must finish at the same
 * simulated cycle with the same checksum.
 *
 * @return true if every rung agreed; diagnostics go to stderr.
 */
inline bool
runDifferential(const apps::App &app, std::uint32_t pes)
{
    bool ok = true;
    for (std::size_t i = 0; i < app.rungs.size(); ++i) {
        const std::string label = app.name + "/" + app.rungs[i];
        const apps::RungResult base = app.run(i, countedMachine(pes), {});
        if (!base.valid) {
            std::cerr << "FAIL " << label
                      << ": counters-on baseline failed validation\n";
            ok = false;
            continue;
        }
        const apps::RungResult off =
            app.run(i, countedMachine(pes, false), {});
        if (off.elapsed != base.elapsed ||
            off.checksum != base.checksum || !off.valid) {
            std::cerr << "FAIL " << label
                      << ": counters off diverged (cycles "
                      << off.elapsed << " vs " << base.elapsed
                      << ", checksum " << off.checksum << " vs "
                      << base.checksum << ")\n";
            ok = false;
        }
    }
    return ok;
}

/**
 * The whole ladder bench for @p app: the ladder at 32 (and, unless
 * quick, 256) PEs, then @p ablation, then the differential at 32
 * PEs, then BENCH_app_<name>.json.
 *
 * @param write_config Writes the app's config as one JSON object.
 * @param ablation     (bool &ok) -> Ablation; prints its own rows
 *                     and clears ok on a failed run.
 * @return the process exit code: non-zero if any run failed
 *         validation, the differential diverged or the report could
 *         not be written.
 */
template <typename ConfigFn, typename AblationFn>
int
runBench(const apps::App &app, const Options &opt,
         ConfigFn &&write_config, AblationFn &&ablation)
{
    using Layout = sim::JsonWriter::Layout;
    bool ok = true;
    const std::vector<LadderRow> ladder = runLadder(
        app,
        opt.quick ? std::vector<std::uint32_t>{32}
                  : std::vector<std::uint32_t>{32, 256},
        ok);
    const Ablation abl = ablation(ok);

    const bool differential_ok = runDifferential(app, 32);
    ok &= differential_ok;
    std::cout << "differential "
              << (differential_ok ? "ok" : "DIVERGED") << "\n";

    // A stream that failed to open ignores the writes; checked below.
    std::ofstream os(opt.outPath);
    sim::JsonWriter w(os);
    w.beginObject(Layout::Lines).member("bench", "app_" + app.name);
    w.member("quick", opt.quick).key("config");
    write_config(w);
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
        std::cerr << "error: could not write " << opt.outPath << "\n";
        return 1;
    }
    std::cout << "wrote " << opt.outPath << "\n";
    return ok ? 0 : 1;
}

} // namespace t3dsim::appbench

#endif // T3DSIM_BENCH_APP_BENCH_HH
