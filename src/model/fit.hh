/**
 * @file
 * Least-squares fitting for the analytical model layer
 * (docs/MODEL.md). Two shapes cover every primitive the paper
 * characterizes:
 *
 *  - LinearFit:  y = a + b·x        (startup + per-word/byte slope:
 *    reads, writes, prefetch groups, BLT size sweeps, message runs)
 *  - ScalingFit: y = a + b·t(P)     with t drawn from a small
 *    Extra-P-style term grid {1, log2 P, sqrt P, P, P·log2 P, 1/P}
 *    (barrier fan-in, per-PE counter-signature growth across torus
 *    sizes)
 *
 * Every fit carries its residual diagnostics (r², median/max
 * absolute relative error) so the validator can refuse to
 * extrapolate from a fit that never explained its own sweep.
 */

#ifndef T3DSIM_MODEL_FIT_HH
#define T3DSIM_MODEL_FIT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace t3dsim::model
{

/** One (x, y) observation of a sweep. */
struct FitPoint
{
    double x = 0;
    double y = 0;
};

/** Residual diagnostics of a completed fit over its own points. */
struct FitQuality
{
    std::size_t points = 0;

    /** Coefficient of determination; 1 when the fit is exact. */
    double r2 = 0;

    /** Median of |predicted - observed| / max(|observed|, 1). */
    double medianRelErr = 0;

    /** Worst-case of the same relative residual. */
    double maxRelErr = 0;
};

/** y = intercept + slope · x. */
struct LinearFit
{
    double intercept = 0;
    double slope = 0;
    FitQuality quality{};

    double eval(double x) const { return intercept + slope * x; }
};

/** The Extra-P-style term grid for scaling fits. */
enum class ScalingTerm
{
    Constant, ///< t(P) = 0 (pure intercept)
    Log2,     ///< t(P) = log2 P
    Sqrt,     ///< t(P) = sqrt P
    Linear,   ///< t(P) = P
    PLogP,    ///< t(P) = P · log2 P
    Inverse,  ///< t(P) = 1 / P
};

const char *scalingTermName(ScalingTerm t);

/** Term by name ("log2" …); returns false on unknown names. */
bool scalingTermFromName(const std::string &name, ScalingTerm &out);

/** t(P) for one term. */
double scalingTermValue(ScalingTerm t, double p);

/** y = intercept + slope · t(P), with the chosen term recorded. */
struct ScalingFit
{
    ScalingTerm term = ScalingTerm::Constant;
    double intercept = 0;
    double slope = 0;
    FitQuality quality{};

    double
    eval(double p) const
    {
        return intercept + slope * scalingTermValue(term, p);
    }
};

/**
 * Ordinary least squares of y on x. With fewer than two distinct x
 * values the slope is 0 and the intercept the mean.
 */
LinearFit fitLinear(const std::vector<FitPoint> &points);

/**
 * Least squares of y on t(P) for every term in the grid; returns
 * the term with the smallest sum of squared residuals, breaking
 * ties toward the simpler (earlier-listed) term. Points use x = P.
 */
ScalingFit fitScaling(const std::vector<FitPoint> &points);

/** Residual diagnostics of an arbitrary predictor over points. */
template <typename Fn>
FitQuality
residuals(const std::vector<FitPoint> &points, Fn &&predict)
{
    std::vector<double> rel;
    rel.reserve(points.size());
    FitQuality q;
    q.points = points.size();
    double mean = 0;
    for (const FitPoint &p : points)
        mean += p.y;
    mean = points.empty() ? 0 : mean / points.size();
    double ssRes = 0, ssTot = 0;
    for (const FitPoint &p : points) {
        const double e = predict(p.x) - p.y;
        ssRes += e * e;
        ssTot += (p.y - mean) * (p.y - mean);
        const double denom = p.y < 0 ? -p.y : p.y;
        rel.push_back((e < 0 ? -e : e) / (denom > 1 ? denom : 1));
    }
    q.r2 = ssTot > 0 ? 1.0 - ssRes / ssTot : (ssRes == 0 ? 1.0 : 0.0);
    if (!rel.empty()) {
        std::vector<double> sorted = rel;
        std::sort(sorted.begin(), sorted.end());
        q.medianRelErr = sorted[sorted.size() / 2];
        q.maxRelErr = sorted.back();
    }
    return q;
}

/** Residual diagnostics over generic prediction pairs. */
FitQuality qualityFromPairs(const std::vector<double> &predicted,
                            const std::vector<double> &observed);

/**
 * Multi-feature ordinary least squares without intercept:
 * y[i] ≈ Σ_j beta[j] · rows[i][j]. Solves the normal equations by
 * Gaussian elimination with partial pivoting — feature counts here
 * are tiny (a fit group prices at most a handful of counters).
 *
 * @return false (beta zeroed) when the system is singular, e.g. a
 *         feature never varies across the pooled sweep points.
 */
bool solveLeastSquares(const std::vector<std::vector<double>> &rows,
                       const std::vector<double> &y,
                       std::vector<double> &beta);

} // namespace t3dsim::model

#endif // T3DSIM_MODEL_FIT_HH
