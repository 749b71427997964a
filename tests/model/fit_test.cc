/**
 * @file
 * Fitter tests (docs/MODEL.md §3): golden exact-recovery fits on
 * synthetic sweeps, scaling-term selection, the multi-feature
 * no-intercept solver, and residual thresholds on the *real*
 * micro-sweeps — the fitted model must explain the measurements it
 * came from, or the handbook's coefficients are fiction.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "model/compose.hh"
#include "model/fit.hh"
#include "model/measure.hh"
#include "model/primitives.hh"
#include "model/sweep.hh"
#include "probes/counters.hh"

namespace t3dsim::model
{
namespace
{

TEST(FitLinear, RecoversExactLine)
{
    std::vector<FitPoint> pts;
    for (double x : {1.0, 2.0, 4.0, 8.0, 16.0})
        pts.push_back({x, 100.0 + 7.0 * x});
    const LinearFit fit = fitLinear(pts);
    EXPECT_NEAR(fit.intercept, 100.0, 1e-9);
    EXPECT_NEAR(fit.slope, 7.0, 1e-9);
    EXPECT_NEAR(fit.quality.r2, 1.0, 1e-12);
    EXPECT_NEAR(fit.quality.maxRelErr, 0.0, 1e-12);
}

TEST(FitLinear, DegenerateXGivesMeanIntercept)
{
    const LinearFit fit = fitLinear({{3, 10}, {3, 20}});
    EXPECT_DOUBLE_EQ(fit.slope, 0);
    EXPECT_DOUBLE_EQ(fit.intercept, 15);
}

TEST(FitScaling, PicksGeneratingTerm)
{
    for (ScalingTerm term :
         {ScalingTerm::Log2, ScalingTerm::Sqrt, ScalingTerm::Linear,
          ScalingTerm::PLogP}) {
        std::vector<FitPoint> pts;
        for (double p : {2.0, 8.0, 32.0, 128.0, 512.0})
            pts.push_back({p, 5.0 + 3.0 * scalingTermValue(term, p)});
        const ScalingFit fit = fitScaling(pts);
        EXPECT_EQ(fit.term, term) << scalingTermName(term);
        EXPECT_NEAR(fit.intercept, 5.0, 1e-6);
        EXPECT_NEAR(fit.slope, 3.0, 1e-6);
    }
}

TEST(FitScaling, ConstantDataPrefersConstantTerm)
{
    std::vector<FitPoint> pts;
    for (double p : {2.0, 8.0, 32.0, 128.0})
        pts.push_back({p, 42.0});
    const ScalingFit fit = fitScaling(pts);
    EXPECT_EQ(fit.term, ScalingTerm::Constant);
    EXPECT_NEAR(fit.eval(1 << 20), 42.0, 1e-9);
}

TEST(SolveLeastSquares, RecoversTwoCoupledFeatures)
{
    // y = 88·a + 2·b, with (a, b) patterns mimicking the pooled
    // remote-read op-count + distance sweeps.
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    for (double ops : {8.0, 16.0, 32.0}) {
        rows.push_back({ops, 2 * ops});
        y.push_back(88.0 * ops + 2.0 * (2 * ops));
    }
    for (double hops : {1.0, 3.0, 6.0}) {
        rows.push_back({16.0, 16.0 * hops});
        y.push_back(88.0 * 16.0 + 2.0 * 16.0 * hops);
    }
    std::vector<double> beta;
    ASSERT_TRUE(solveLeastSquares(rows, y, beta));
    ASSERT_EQ(beta.size(), 2u);
    EXPECT_NEAR(beta[0], 88.0, 1e-6);
    EXPECT_NEAR(beta[1], 2.0, 1e-6);
}

TEST(SolveLeastSquares, SingularSystemReportsFailure)
{
    // Second feature is a constant multiple of the first.
    std::vector<std::vector<double>> rows = {
        {1, 2}, {2, 4}, {3, 6}};
    std::vector<double> beta;
    EXPECT_FALSE(solveLeastSquares(rows, {10, 20, 30}, beta));
    ASSERT_EQ(beta.size(), 2u);
    EXPECT_DOUBLE_EQ(beta[0], 0);
    EXPECT_DOUBLE_EQ(beta[1], 0);
}

/** Synthetic sweeps with known per-counter prices: the fitter must
 *  recover them exactly (golden fit). */
TEST(FitCostModel, GoldenRecoveryFromSyntheticSweeps)
{
    auto sweep = [](const char *primitive,
                    std::vector<SweepPoint> pts) {
        Sweep s;
        s.primitive = primitive;
        s.xUnit = "ops";
        s.points = std::move(pts);
        return s;
    };
    std::vector<Sweep> sweeps;
    // l1Hits priced at exactly 1.5 cycles.
    sweeps.push_back(sweep(
        "local_read_hit", {{32, 48, {{"l1Hits", 32}}},
                           {64, 96, {{"l1Hits", 64}}},
                           {128, 192, {{"l1Hits", 128}}}}));
    FitReport report;
    const CostModel m = fitCostModel(sweeps, &report);
    EXPECT_NEAR(m.beta("l1Hits"), 1.5, 1e-9);
    const CostTerm *t = m.termForCounter("l1Hits");
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->fitted);
    EXPECT_NEAR(t->quality.r2, 1.0, 1e-9);
    // Unmeasured groups stay at assumed values and warn.
    EXPECT_FALSE(report.warnings.empty());
    const CostTerm *rr = m.termForCounter("remoteReads");
    ASSERT_NE(rr, nullptr);
    EXPECT_FALSE(rr->fitted);
}

/** A fit that solves a negative price clamps it to 0, marks the
 *  term, survives the model file and flags a nonzero count. */
TEST(FitCostModel, ClampedTermFlagsNonzeroCount)
{
    // Past the 100 priced L1 hits, each prefetch-queue stall "saves"
    // 2 cycles: a negative slope.
    const double hits = 100 * defaultCostModel().beta("l1Hits");
    Sweep s;
    s.primitive = "splitc_get_deep";
    s.xUnit = "gets";
    for (double stalls : {1.0, 2.0, 4.0}) {
        s.points.push_back(
            {stalls, hits - 2 * stalls,
             {{"l1Hits", 100}, {"prefetchFullStalls", stalls}}});
    }
    FitReport report;
    const CostModel fitted = fitCostModel({s}, &report);
    const CostTerm *t = fitted.termForCounter("prefetchFullStalls");
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->fitted);
    EXPECT_TRUE(t->clamped);
    EXPECT_EQ(t->beta, 0.0);
    EXPECT_FALSE(fitted.termForCounter("l1Hits")->clamped);

    std::ostringstream os;
    writeModelJson(os, fitted);
    std::string error;
    CostModel m;
    ASSERT_TRUE(readModelJson(Json::parse(os.str(), &error), m, &error))
        << error;
    ASSERT_TRUE(m.termForCounter("prefetchFullStalls")->clamped);

    Signature sig;
    sig.setCounter("l1Hits", 10);
    EXPECT_TRUE(predict(m, sig).flags.empty());
    sig.setCounter("prefetchFullStalls", 2);
    const Prediction pred = predict(m, sig);
    EXPECT_DOUBLE_EQ(pred.cycles, 10 * m.beta("l1Hits"));
    ASSERT_EQ(pred.flags.size(), 1u);
    EXPECT_NE(pred.flags[0].find("prefetchFullStalls"), std::string::npos);
    EXPECT_NE(pred.flags[0].find("clamped"), std::string::npos);
}

/** The real micro-sweeps must be explained by their own fit. */
TEST(FitCostModel, RealSweepsFitWithinResidualBand)
{
    const std::vector<Sweep> sweeps = measureAll();
    ASSERT_FALSE(sweeps.empty());

    // The sweeps price counters, and their machines ask to count:
    // T3DSIM_COUNTERS=0 in the environment must not change a point.
    setenv("T3DSIM_COUNTERS", "0", 1);
    const std::vector<Sweep> env0 = measureAll();
    unsetenv("T3DSIM_COUNTERS");
    std::ostringstream unset_json, env0_json;
    writeSweepsJson(unset_json, sweeps);
    writeSweepsJson(env0_json, env0);
    EXPECT_EQ(env0_json.str(), unset_json.str());

    FitReport report;
    const CostModel m = fitCostModel(sweeps, &report);

    // Anchor coefficients the paper pins down (fitted or assumed).
    EXPECT_NEAR(m.beta("l1Hits"), 1.0, 0.05);
    EXPECT_NEAR(m.beta("annexFaults"), 23.0, 2.0);
    EXPECT_GT(m.beta("remoteReads"), 60.0);
    EXPECT_LT(m.beta("remoteReads"), 130.0);
    EXPECT_GT(m.beta("msgInterrupts"), 3000.0);

    // Every fitted term must carry healthy residuals.
    for (const CostTerm &t : m.terms) {
        if (!t.fitted || t.beta == 0)
            continue;
        EXPECT_GT(t.quality.points, 0u) << t.name;
        EXPECT_LT(t.quality.medianRelErr, 0.05) << t.name;
    }

    // Fig. 8: BLT bandwidth near 1 cycle/byte after startup, and a
    // solved crossover in the thousands of bytes.
    EXPECT_GT(m.bltRead.slope, 0.9);
    EXPECT_LT(m.bltRead.slope, 1.4);
    EXPECT_GT(m.bltCrossoverBytes, 2000.0);
    EXPECT_LT(m.bltCrossoverBytes, 20000.0);

    // No negative prices survive fitting.
    for (const CostTerm &t : m.terms)
        EXPECT_GE(t.beta, 0.0) << t.name;
}

/** Sweeps and fitted models survive their JSON round trip. */
TEST(ModelJson, SweepAndModelRoundTrip)
{
    const std::vector<Sweep> sweeps = measureAll();
    ASSERT_FALSE(sweeps.empty());

    std::string error;
    std::ostringstream ss;
    writeSweepsJson(ss, sweeps);
    const Json doc = Json::parse(ss.str(), &error);
    std::vector<Sweep> back;
    ASSERT_TRUE(readSweepsJson(doc, back, &error)) << error;
    ASSERT_EQ(back.size(), sweeps.size());
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        EXPECT_EQ(back[i].primitive, sweeps[i].primitive);
        ASSERT_EQ(back[i].points.size(), sweeps[i].points.size());
        for (std::size_t j = 0; j < sweeps[i].points.size(); ++j) {
            EXPECT_DOUBLE_EQ(back[i].points[j].cycles,
                             sweeps[i].points[j].cycles);
            EXPECT_EQ(back[i].points[j].counters,
                      sweeps[i].points[j].counters);
        }
    }

    const CostModel m = fitCostModel(sweeps);
    std::ostringstream ms;
    writeModelJson(ms, m);
    const Json mdoc = Json::parse(ms.str(), &error);
    CostModel mb;
    ASSERT_TRUE(readModelJson(mdoc, mb, &error)) << error;
    ASSERT_EQ(mb.terms.size(), m.terms.size());
    for (std::size_t i = 0; i < m.terms.size(); ++i) {
        EXPECT_EQ(mb.terms[i].counter, m.terms[i].counter);
        EXPECT_DOUBLE_EQ(mb.terms[i].beta, m.terms[i].beta);
        EXPECT_EQ(mb.terms[i].flagOnNonzero,
                  m.terms[i].flagOnNonzero);
        EXPECT_EQ(mb.terms[i].clamped, m.terms[i].clamped);
    }
    EXPECT_EQ(mb.directCycleCounters, m.directCycleCounters);
    EXPECT_DOUBLE_EQ(mb.bltCrossoverBytes, m.bltCrossoverBytes);
    EXPECT_DOUBLE_EQ(mb.bltRead.slope, m.bltRead.slope);
    EXPECT_EQ(mb.barrierScaling.term, m.barrierScaling.term);
}

} // namespace
} // namespace t3dsim::model
