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
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "machine/config.hh"
#include "probes/counters.hh"

namespace t3dsim::appbench
{

/** Command line shared by the ladder benches. */
struct Options
{
    /** 32 PEs only, the app's smoke config (CI). */
    bool quick = false;

    std::string outPath;
};

/** Parse --quick and --out=F; other arguments are ignored. */
inline Options
parseOptions(int argc, char **argv, std::string default_out)
{
    Options opt;
    opt.outPath = std::move(default_out);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            opt.quick = true;
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            opt.outPath = argv[i] + 6;
    }
    return opt;
}

/** Emit the full counter taxonomy of @p c as one JSON object. */
inline void
writeCounterObject(std::ostream &os, const probes::PerfCounters &c)
{
    const auto &infos = probes::PerfCounters::infos();
    os << "{";
    for (std::size_t i = 0; i < probes::PerfCounters::numCounters;
         ++i) {
        os << "\"" << infos[i].name << "\": " << c.value(i)
           << (i + 1 < probes::PerfCounters::numCounters ? ", " : "");
    }
    os << "}";
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

/** Emit the ladder as a JSON array; perUnit goes under
 *  us_per_<unit>. */
inline void
writeLadderJson(std::ostream &os, const apps::App &app,
                const std::vector<LadderRow> &rows)
{
    std::string per_unit_key = "us_per_" + app.unit;
    for (char &c : per_unit_key)
        c = c == '-' ? '_' : c;
    os << "  \"ladder\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const apps::RungResult &r = rows[i].result;
        os << "    {\"variant\": \"" << app.rungs[rows[i].rung]
           << "\", \"pes\": " << rows[i].pes
           << ", \"sim_cycles\": " << r.elapsed << ", \""
           << per_unit_key << "\": " << r.perUnit
           << ", \"checksum\": " << r.checksum
           << ", \"valid\": " << (r.valid ? "true" : "false");
        if (r.countersValid) {
            os << ", \"counters\": ";
            writeCounterObject(os, r.counters);
        }
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]";
}

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
 * @param config_json The app's config as one JSON object.
 * @param ablation    (bool &ok) -> its JSON member
 *                    (`"name": [...]`); prints its own rows and
 *                    clears ok on a failed run.
 * @return the process exit code: non-zero if any run failed
 *         validation, the differential diverged or the report could
 *         not be written.
 */
template <typename AblationFn>
int
runBench(const apps::App &app, const Options &opt,
         const std::string &config_json, AblationFn &&ablation)
{
    bool ok = true;
    const std::vector<LadderRow> ladder = runLadder(
        app,
        opt.quick ? std::vector<std::uint32_t>{32}
                  : std::vector<std::uint32_t>{32, 256},
        ok);
    const std::string ablation_json = ablation(ok);

    const bool differential_ok = runDifferential(app, 32);
    ok &= differential_ok;
    std::cout << "differential "
              << (differential_ok ? "ok" : "DIVERGED") << "\n";

    std::ofstream os(opt.outPath);
    if (!os) {
        std::cerr << "error: could not write " << opt.outPath << "\n";
        return 1;
    }
    os.precision(17);
    os << "{\n"
       << "  \"bench\": \"app_" << app.name << "\",\n"
       << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
       << "  \"config\": " << config_json << ",\n";
    writeLadderJson(os, app, ladder);
    os << ",\n  " << ablation_json << ",\n"
       << "  \"differential\": {\"pes\": 32, \"counters_modes\": 2, "
          "\"ok\": "
       << (differential_ok ? "true" : "false") << "}\n"
       << "}\n";
    if (!os) {
        std::cerr << "error: could not write " << opt.outPath << "\n";
        return 1;
    }
    std::cout << "wrote " << opt.outPath << "\n";
    return ok ? 0 : 1;
}

} // namespace t3dsim::appbench

#endif // T3DSIM_BENCH_APP_BENCH_HH
