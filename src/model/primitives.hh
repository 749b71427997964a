/**
 * @file
 * Per-primitive cost models fitted from counter-carrying sweeps
 * (docs/MODEL.md §2-§3).
 *
 * The model prices the 29-counter taxonomy: every counter has
 * exactly one disposition —
 *
 *  - **priced**: a CostTerm with a fitted (or assumed) cycles-per-
 *    unit coefficient; prediction contributes beta · count.
 *  - **direct**: the counter already holds cycles (wbStallCycles,
 *    bltSetupCycles, bltTransferCycles, barrierWaitCycles);
 *    prediction contributes the value at coefficient 1.
 *  - **folded**: beta 0 with a note naming the term whose fitted
 *    coefficient absorbs it (e.g. annexHits rides inside
 *    remote_read because every fixed-target remote read bumps both,
 *    making them collinear in any sweep).
 *
 * Fitting is residual-ordered: fit groups run in a fixed order, and
 * each group solves a small no-intercept least-squares system over
 * its sweeps' points after subtracting the contribution of every
 * already-priced counter. That isolates coupled costs (remoteReads
 * vs torusHops are separable only by pooling a fixed-distance op-
 * count sweep with a fixed-op-count distance sweep).
 *
 * On top of the per-counter terms the model keeps four headline
 * curve fits from the paper's figures (BLT read/write startup+
 * bandwidth, bulk-get-via-prefetch bandwidth, prefetch pipeline
 * fill) plus the barrier scaling fit, from which the Fig. 8 BLT
 * crossover point is solved rather than assumed.
 */

#ifndef T3DSIM_MODEL_PRIMITIVES_HH
#define T3DSIM_MODEL_PRIMITIVES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "model/fit.hh"
#include "model/json.hh"
#include "model/sweep.hh"

namespace t3dsim::model
{

/** One priced counter of the taxonomy. */
struct CostTerm
{
    /** Model-facing name ("remote_read", "l1_hit", ...). */
    std::string name;

    /** Counter this term prices (probes::PerfCounters field name). */
    std::string counter;

    /** Fitted cycles per counted unit. */
    double beta = 0;

    /** True when beta came from a sweep fit (vs assumed/folded). */
    bool fitted = false;

    /**
     * True for limit-path counters (spills, overflows) the model
     * deliberately does not price: the composer flags a prediction
     * whenever such a counter is nonzero, because the linear
     * composition is known to break there.
     */
    bool flagOnNonzero = false;

    /**
     * True when the sweep fit solved a negative beta and clamped it
     * to 0: the counter is then unpriced, so the composer flags a
     * prediction whenever it is nonzero.
     */
    bool clamped = false;

    /** Source sweep names, comma separated; empty when assumed. */
    std::string sweeps;

    /** Paper anchor (figure / table / section). */
    std::string paper;

    /** Free-form provenance note. */
    std::string note;

    /** Residual diagnostics of the group fit that set beta. */
    FitQuality quality{};
};

/** A complete fitted model. */
struct CostModel
{
    std::vector<CostTerm> terms;

    /** Counters whose value is already cycles (coefficient 1). */
    std::vector<std::string> directCycleCounters;

    /** Headline curves (x in bytes unless noted). */
    LinearFit bltRead;          ///< Fig. 8: startup + cycles/byte
    LinearFit bltWrite;         ///< Fig. 8 companion
    LinearFit bulkGetPrefetch;  ///< bulk get via prefetch pipeline
    LinearFit prefetchGroup;    ///< x = group size, one sync group

    /** One-barrier latency vs torus size (x = PEs). */
    ScalingFit barrierScaling;

    /** Solved Fig. 8 crossover: BLT beats prefetch above this. */
    double bltCrossoverBytes = 0;

    const CostTerm *termForCounter(const std::string &counter) const;

    /** Cycles per unit of a counter; 0 when unpriced. */
    double beta(const std::string &counter) const;

    bool isDirect(const std::string &counter) const;
};

/** Non-fatal diagnostics of a fitCostModel run. */
struct FitReport
{
    std::vector<std::string> warnings;
};

/**
 * Fit the cost model from sweeps (measureAll() or any
 * t3dsim-sweeps-v1 file). Missing sweeps leave the affected terms
 * at their assumed coefficients and add a warning.
 */
CostModel fitCostModel(const std::vector<Sweep> &sweeps,
                       FitReport *report = nullptr);

/** The 29-counter disposition with assumed coefficients, unfitted. */
CostModel defaultCostModel();

/** Write schema t3dsim-model-v1. */
void writeModelJson(std::ostream &os, const CostModel &model);

/** Parse a t3dsim-model-v1 document (inverse of writeModelJson). */
bool readModelJson(const Json &doc, CostModel &model,
                   std::string *error);

/**
 * The serving fast path's model entry (docs/TASKGRAPH.md): load a
 * fitted t3dsim-model-v1 file from @p path, or fall back to
 * defaultCostModel() when @p path is empty. False + @p error when a
 * named file is missing or malformed — a server must fail loudly
 * rather than silently serve assumed coefficients.
 */
bool loadCostModelFile(const std::string &path, CostModel &model,
                       std::string &error);

} // namespace t3dsim::model

#endif // T3DSIM_MODEL_PRIMITIVES_HH
