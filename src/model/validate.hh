/**
 * @file
 * The validator: predicted-vs-simulated error bands across the app
 * ladders (docs/MODEL.md §5-§6). runLadder runs one apps::App's
 * ladder as (rung result, counter signature) pairs; each row of
 * validateLadder diffs one (workload, rung, pes) point: the composed
 * prediction against the simulated elapsed cycles, with the
 * composer's reliability flags carried through so rows where linear
 * composition is known to break are marked rather than silently
 * averaged in.
 */

#ifndef T3DSIM_MODEL_VALIDATE_HH
#define T3DSIM_MODEL_VALIDATE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "machine/config.hh"
#include "model/compose.hh"
#include "model/primitives.hh"

namespace t3dsim::model
{

/** One ladder rung run once (see runLadder). */
struct LadderPoint
{
    /** The rung's own outcome: elapsed cycles (the validation
     *  truth), checksum, the app's verdict and the counters. */
    apps::RungResult result;

    /** Workload, rung, PE count and closed-form compute term. The
     *  per-PE counter means come from result.counters, so they are
     *  empty unless result.countersValid. */
    Signature sig;
};

/**
 * The one ladder runner: every rung of @p app, in ladder order, each
 * on a fresh machine built from @p mc. The signature's compute term
 * is the app's closed form (RungResult::computeCyclesPerPe). A rung
 * that fails the app's own check is still returned; allRungsValid()
 * names it, and no caller may price or publish it.
 */
std::vector<LadderPoint> runLadder(const apps::App &app,
                                   const machine::MachineConfig &mc);

/** MachineConfig::t3d(@p pes) with the performance counters on: the
 *  machine every signature is measured on. */
machine::MachineConfig countedT3d(std::uint32_t pes);

/** Name on @p err, one "error: app/rung @ N PEs failed its own
 *  check" line each, every point whose run failed the app's own
 *  check (RungResult::valid); true if none did. */
bool allRungsValid(const std::vector<LadderPoint> &points,
                   std::ostream &err);

/** Mean host nanoseconds per predict() call over @p points (1000
 *  timed repetitions; 0 when @p points is empty). */
double nsPerPrediction(const CostModel &cost,
                       const std::vector<LadderPoint> &points);

/** One predicted-vs-simulated comparison. */
struct ErrorRow
{
    std::string workload;
    std::string rung;
    double pes = 0;
    double simulatedCycles = 0;
    double predictedCycles = 0;

    /** Signed relative error, percent (+ = model over-predicts). */
    double errorPct = 0;

    /** Composer reliability flags (limit paths, unknown counters). */
    std::vector<std::string> flags;
};

/** Error bands over a set of rows. */
struct ValidationReport
{
    std::vector<ErrorRow> rows;

    /** Median |error| %, over all rows / per workload. */
    double medianAbsErrorPct = 0;
    std::vector<std::pair<std::string, double>> perWorkloadMedian;

    double maxAbsErrorPct = 0;

    /** Rows whose |error| exceeded the band or carried flags. */
    std::size_t flaggedRows = 0;
};

/** Diff measured ladder points against the composed predictions. */
std::vector<ErrorRow>
validateLadder(const CostModel &model,
               const std::vector<LadderPoint> &ladder);

/**
 * Aggregate rows into a report. @p band_pct is the acceptance band:
 * rows beyond it (or carrying composer flags) count as flagged.
 */
ValidationReport summarize(std::vector<ErrorRow> rows,
                           double band_pct = 10.0);

/** Render the report as a markdown table (for EXPERIMENTS.md). */
std::string reportMarkdown(const ValidationReport &report);

} // namespace t3dsim::model

#endif // T3DSIM_MODEL_VALIDATE_HH
