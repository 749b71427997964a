#include "model/fit.hh"

#include <cmath>

namespace t3dsim::model
{

const char *
scalingTermName(ScalingTerm t)
{
    switch (t) {
      case ScalingTerm::Constant: return "const";
      case ScalingTerm::Log2: return "log2";
      case ScalingTerm::Sqrt: return "sqrt";
      case ScalingTerm::Linear: return "linear";
      case ScalingTerm::PLogP: return "plogp";
      case ScalingTerm::Inverse: return "inverse";
    }
    return "?";
}

bool
scalingTermFromName(const std::string &name, ScalingTerm &out)
{
    for (ScalingTerm t : {ScalingTerm::Constant, ScalingTerm::Log2,
                          ScalingTerm::Sqrt, ScalingTerm::Linear,
                          ScalingTerm::PLogP, ScalingTerm::Inverse}) {
        if (name == scalingTermName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

double
scalingTermValue(ScalingTerm t, double p)
{
    switch (t) {
      case ScalingTerm::Constant:
        return 0;
      case ScalingTerm::Log2:
        return p > 1 ? std::log2(p) : 0;
      case ScalingTerm::Sqrt:
        return std::sqrt(p);
      case ScalingTerm::Linear:
        return p;
      case ScalingTerm::PLogP:
        return p > 1 ? p * std::log2(p) : 0;
      case ScalingTerm::Inverse:
        return p != 0 ? 1.0 / p : 0;
    }
    return 0;
}

namespace
{

/** OLS of y on t, returning (intercept, slope). */
void
ols(const std::vector<FitPoint> &pts,
    double (*transform)(double, const void *), const void *ctx,
    double &intercept, double &slope)
{
    const std::size_t n = pts.size();
    if (n == 0) {
        intercept = slope = 0;
        return;
    }
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const FitPoint &p : pts) {
        const double t = transform(p.x, ctx);
        sx += t;
        sy += p.y;
        sxx += t * t;
        sxy += t * p.y;
    }
    const double det = n * sxx - sx * sx;
    if (std::abs(det) < 1e-12 * (sxx * n + 1)) {
        slope = 0;
        intercept = sy / n;
        return;
    }
    slope = (n * sxy - sx * sy) / det;
    intercept = (sy - slope * sx) / n;
}

double
sumSquaredError(const std::vector<FitPoint> &pts, double intercept,
                double slope,
                double (*transform)(double, const void *),
                const void *ctx)
{
    double ss = 0;
    for (const FitPoint &p : pts) {
        const double e = intercept + slope * transform(p.x, ctx) - p.y;
        ss += e * e;
    }
    return ss;
}

} // namespace

LinearFit
fitLinear(const std::vector<FitPoint> &points)
{
    LinearFit fit;
    const auto identity = +[](double x, const void *) { return x; };
    ols(points, identity, nullptr, fit.intercept, fit.slope);
    fit.quality = residuals(
        points, [&](double x) { return fit.eval(x); });
    return fit;
}

ScalingFit
fitScaling(const std::vector<FitPoint> &points)
{
    ScalingFit best;
    bool first = true;
    double bestSs = 0;
    for (ScalingTerm term :
         {ScalingTerm::Constant, ScalingTerm::Log2, ScalingTerm::Sqrt,
          ScalingTerm::Linear, ScalingTerm::PLogP,
          ScalingTerm::Inverse}) {
        const auto transform = +[](double x, const void *ctx) {
            return scalingTermValue(
                *static_cast<const ScalingTerm *>(ctx), x);
        };
        ScalingFit fit;
        fit.term = term;
        ols(points, transform, &term, fit.intercept, fit.slope);
        const double ss = sumSquaredError(points, fit.intercept,
                                          fit.slope, transform, &term);
        // Prefer the simpler term unless a later one is a real
        // improvement, so exact-constant sweeps don't pick up noise
        // terms with near-zero slopes.
        if (first || ss < bestSs * (1.0 - 1e-9)) {
            best = fit;
            bestSs = ss;
            first = false;
        }
    }
    best.quality = residuals(
        points, [&](double x) { return best.eval(x); });
    return best;
}

bool
solveLeastSquares(const std::vector<std::vector<double>> &rows,
                  const std::vector<double> &y,
                  std::vector<double> &beta)
{
    const std::size_t n = rows.size();
    const std::size_t k = n ? rows[0].size() : 0;
    beta.assign(k, 0.0);
    if (k == 0 || n < k || y.size() != n)
        return false;

    // Normal equations: A = XᵀX (k×k), b = Xᵀy.
    std::vector<std::vector<double>> a(k, std::vector<double>(k, 0));
    std::vector<double> b(k, 0);
    double scale = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            b[p] += rows[i][p] * y[i];
            for (std::size_t q = 0; q < k; ++q)
                a[p][q] += rows[i][p] * rows[i][q];
        }
    }
    for (std::size_t p = 0; p < k; ++p)
        scale = std::max(scale, std::abs(a[p][p]));
    if (scale <= 0)
        return false;

    // Gaussian elimination with partial pivoting.
    for (std::size_t col = 0; col < k; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < k; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        }
        if (std::abs(a[pivot][col]) < 1e-9 * scale) {
            beta.assign(k, 0.0);
            return false;
        }
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        for (std::size_t r = col + 1; r < k; ++r) {
            const double f = a[r][col] / a[col][col];
            for (std::size_t c = col; c < k; ++c)
                a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }
    for (std::size_t col = k; col-- > 0;) {
        double s = b[col];
        for (std::size_t c = col + 1; c < k; ++c)
            s -= a[col][c] * beta[c];
        beta[col] = s / a[col][col];
    }
    return true;
}

FitQuality
qualityFromPairs(const std::vector<double> &predicted,
                 const std::vector<double> &observed)
{
    std::vector<FitPoint> pts;
    const std::size_t n =
        std::min(predicted.size(), observed.size());
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        pts.push_back({predicted[i], observed[i]});
    return residuals(pts, [](double pred) { return pred; });
}

} // namespace t3dsim::model
