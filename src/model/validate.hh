/**
 * @file
 * The validator: predicted-vs-simulated error bands across the app
 * ladders (docs/MODEL.md §5-§6). runLadder measures one apps::App's
 * ladder as (counter signature, simulated cycles) pairs; each row of
 * validateLadder diffs one (workload, rung, pes) point: the composed
 * prediction against the simulated elapsed cycles, with the
 * composer's reliability flags carried through so rows where linear
 * composition is known to break are marked rather than silently
 * averaged in.
 */

#ifndef T3DSIM_MODEL_VALIDATE_HH
#define T3DSIM_MODEL_VALIDATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "model/compose.hh"
#include "model/primitives.hh"

namespace t3dsim::model
{

/** One measured ladder rung: signature plus the simulated truth. */
struct LadderPoint
{
    Signature sig;

    /** Simulated elapsed cycles of the run (the validation truth). */
    double simulatedCycles = 0;
};

/**
 * Run every rung of @p app at @p pes on a fresh counted machine
 * (MachineConfig::t3d with observe.counters) and return one
 * LadderPoint per rung, in ladder order. The signature's compute
 * term is the app's closed form (RungResult::computeCyclesPerPe).
 */
std::vector<LadderPoint> runLadder(const apps::App &app,
                                   std::uint32_t pes);

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
