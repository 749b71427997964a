/**
 * @file
 * Shared plumbing for the application sweep benches
 * (bench_app_bsort, bench_app_qcd): ladder-row bookkeeping, the full
 * per-variant counter breakdown as JSON, and the counters-on/off
 * differential every app must pass before its numbers are worth
 * publishing. See docs/APPS.md for the reporting contract.
 */

#ifndef T3DSIM_BENCH_APP_BENCH_HH
#define T3DSIM_BENCH_APP_BENCH_HH

#include <cstdint>
#include <iostream>
#include <ostream>
#include <vector>

#include "apps/variant.hh"
#include "probes/counters.hh"

namespace t3dsim::appbench
{

/** One (variant, PE count) measurement of an app ladder. */
struct LadderRow
{
    const char *variant = "";
    std::uint32_t pes = 0;
    std::uint64_t simCycles = 0;

    /** App-specific normalization (us/key, us/site-update, ...). */
    double perUnit = 0;

    std::uint64_t checksum = 0;

    /** The app's own validation verdict (sorted / converged). */
    bool valid = false;

    probes::PerfCounters counters{};
    bool countersValid = false;
};

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

/** Emit the ladder as a JSON array under 17-digit precision. */
inline void
writeLadderJson(std::ostream &os, const std::vector<LadderRow> &rows,
                const char *per_unit_key)
{
    os << "  \"ladder\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const LadderRow &r = rows[i];
        os << "    {\"variant\": \"" << r.variant
           << "\", \"pes\": " << r.pes
           << ", \"sim_cycles\": " << r.simCycles << ", \""
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
 * The determinism contract behind every published number: the same
 * run with counters on and with counters off must finish at the same
 * simulated cycle with the same checksum.
 *
 * @param run_fn (bool counters) -> LadderRow (only
 *               simCycles/checksum/valid are used).
 * @return true if both legs agreed; diagnostics go to stderr.
 */
template <typename RunFn>
bool
runDifferential(const char *label, RunFn &&run_fn)
{
    const LadderRow base = run_fn(true);
    if (!base.valid) {
        std::cerr << "FAIL " << label
                  << ": counters-on baseline failed validation\n";
        return false;
    }
    const LadderRow off = run_fn(false);
    if (off.simCycles != base.simCycles ||
        off.checksum != base.checksum || !off.valid) {
        std::cerr << "FAIL " << label << ": counters off diverged (cycles "
                  << off.simCycles << " vs " << base.simCycles
                  << ", checksum " << off.checksum << " vs "
                  << base.checksum << ")\n";
        return false;
    }
    return true;
}

} // namespace t3dsim::appbench

#endif // T3DSIM_BENCH_APP_BENCH_HH
