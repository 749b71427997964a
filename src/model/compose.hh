/**
 * @file
 * The composer: workload-level predictions assembled from fitted
 * per-primitive costs and a counter signature (docs/MODEL.md §4).
 *
 * A Signature is the per-PE mean of the 29 counters plus one
 * analytic compute term (the p.compute() charges the taxonomy
 * deliberately does not count; each app's closed form comes with its
 * apps::App rung results). Prediction is a dot product — no re-simulation:
 *
 *   cycles/PE = compute + Σ priced counters · beta + Σ direct
 *
 * The composer flags rows where linear composition is known to
 * break: limit-path counters (spills/overflows) firing, or counters
 * the model never priced. Extrapolation fits each signature
 * component against torus size with the Extra-P term grid and
 * evaluates the composition at machine sizes nobody can simulate.
 */

#ifndef T3DSIM_MODEL_COMPOSE_HH
#define T3DSIM_MODEL_COMPOSE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/fit.hh"
#include "model/primitives.hh"

namespace t3dsim::probes
{
struct PerfCounters;
}

namespace t3dsim::model
{

/** Per-PE counter signature of one workload run. */
struct Signature
{
    std::string workload;
    std::string rung;

    /** Torus size; double so extrapolated signatures compose too. */
    double pes = 0;

    /** Per-PE mean counter values ((name, value), nonzero only). */
    std::vector<std::pair<std::string, double>> perPe;

    /** Analytic compute charges per PE (the apps' closed forms). */
    double computeCyclesPerPe = 0;

    double counter(const std::string &name) const;
    void setCounter(const std::string &name, double value);
};

/** Signature from machine-total counters of a P-PE run. */
Signature signatureFromTotals(const probes::PerfCounters &totals,
                              std::uint32_t pes);

/** A composed prediction. */
struct Prediction
{
    /** Predicted elapsed cycles (per PE ≈ critical path, SPMD). */
    double cycles = 0;

    /** (term, cycles) contributions, largest first. */
    std::vector<std::pair<std::string, double>> breakdown;

    /** Reasons to distrust the linear composition, if any. */
    std::vector<std::string> flags;
};

/** Compose a prediction from a model and a signature. */
Prediction predict(const CostModel &model, const Signature &sig);

/**
 * Scaling model of one workload rung: every signature component
 * fitted against torus size, so the composition can be evaluated at
 * machine sizes that were never simulated.
 */
struct SignatureModel
{
    std::string workload;
    std::string rung;

    /** Per-counter scaling of the per-PE mean vs P. */
    std::vector<std::pair<std::string, ScalingFit>> counterFits;

    /** Scaling of the analytic compute term vs P. */
    ScalingFit computeFit;

    /** PE counts the fits were trained on. */
    std::vector<double> trainedPes;

    /** Extrapolated signature at torus size @p pes. */
    Signature at(double pes) const;
};

/**
 * Fit per-component scaling across measured signatures of one rung
 * (same workload/rung at several torus sizes; negative extrapolated
 * counter values clamp to zero).
 */
SignatureModel
fitSignatureScaling(const std::vector<Signature> &measured);

} // namespace t3dsim::model

#endif // T3DSIM_MODEL_COMPOSE_HH
