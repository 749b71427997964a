/**
 * @file
 * Composer and validator tests (docs/MODEL.md §4-§6): the prediction
 * dot product, limit-path flagging, signature scaling, and the
 * round-trip acceptance test — fit the model from the real
 * micro-sweeps, simulate a real app ladder, and require the composed
 * predictions to land inside the error band.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>

#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "model/compose.hh"
#include "model/measure.hh"
#include "model/primitives.hh"
#include "model/validate.hh"
#include "probes/counters.hh"

namespace t3dsim::model
{
namespace
{

TEST(Predict, DotProductOverPricedAndDirectCounters)
{
    CostModel m = defaultCostModel();
    Signature sig;
    sig.computeCyclesPerPe = 1000;
    sig.setCounter("l1Hits", 500);            // priced at 1
    sig.setCounter("barrierWaitCycles", 250); // direct
    const Prediction pred = predict(m, sig);
    EXPECT_DOUBLE_EQ(pred.cycles,
                     1000 + 500 * m.beta("l1Hits") + 250);
    EXPECT_TRUE(pred.flags.empty());
    // Breakdown is sorted by contribution, compute first here.
    ASSERT_EQ(pred.breakdown.size(), 3u);
    EXPECT_EQ(pred.breakdown[0].first, "compute");
}

TEST(Predict, FlagsLimitPathAndUnknownCounters)
{
    CostModel m = defaultCostModel();
    Signature sig;
    sig.setCounter("msgSpills", 3);
    sig.setCounter("notACounter", 1);
    const Prediction pred = predict(m, sig);
    ASSERT_EQ(pred.flags.size(), 2u);
    EXPECT_NE(pred.flags[0].find("msgSpills"), std::string::npos);
    EXPECT_NE(pred.flags[1].find("notACounter"), std::string::npos);
}

TEST(Signature, FromTotalsDividesByPes)
{
    probes::PerfCounters totals{};
    totals.l1Hits = 3200;
    totals.remoteReads = 64;
    const Signature sig = signatureFromTotals(totals, 32);
    EXPECT_DOUBLE_EQ(sig.counter("l1Hits"), 100);
    EXPECT_DOUBLE_EQ(sig.counter("remoteReads"), 2);
    EXPECT_DOUBLE_EQ(sig.counter("l1Misses"), 0);
}

TEST(SignatureScaling, ExtrapolatesGeneratingLaws)
{
    // Synthetic rung: one flat counter, one linear-in-P counter.
    std::vector<Signature> measured;
    for (double p : {8.0, 16.0, 32.0, 64.0}) {
        Signature s;
        s.workload = "synthetic";
        s.rung = "r";
        s.pes = p;
        s.setCounter("flat", 100);
        s.setCounter("linear", 3 * p);
        s.computeCyclesPerPe = 1000;
        measured.push_back(std::move(s));
    }
    const SignatureModel sm = fitSignatureScaling(measured);
    const Signature big = sm.at(1 << 18);
    EXPECT_NEAR(big.counter("flat"), 100, 1e-6);
    EXPECT_NEAR(big.counter("linear"), 3.0 * (1 << 18), 1e-3);
    EXPECT_NEAR(big.computeCyclesPerPe, 1000, 1e-6);
}

/** The acceptance criterion, in miniature: fit from real sweeps,
 *  simulate the qcd and bsort ladders at 8 PEs, and require the
 *  composed predictions inside a 15% per-row band with a well
 *  under-10% median (docs/MODEL.md §6 reports the full matrix). */
TEST(RoundTrip, FittedModelPredictsAppLadders)
{
    const std::vector<Sweep> sweeps = measureAll();
    ASSERT_FALSE(sweeps.empty());
    const CostModel m = fitCostModel(sweeps);

    apps::qcd::Config qcfg; // 4^4 sites, 2 sweeps — fast
    apps::bsort::Config bcfg;
    bcfg.keysPerPe = 256;
    std::vector<LadderPoint> points;
    for (const apps::App &app :
         {apps::qcd::app(qcfg), apps::bsort::app(bcfg)}) {
        auto l = runLadder(app, countedT3d(8));
        points.insert(points.end(), l.begin(), l.end());
    }
    EXPECT_TRUE(allRungsValid(points, std::cerr));
    const ValidationReport report =
        summarize(validateLadder(m, points), 15.0);
    ASSERT_EQ(report.rows.size(), 10u);
    for (const LadderPoint &pt : points)
        EXPECT_GT(pt.result.elapsed, 0u) << pt.sig.rung;

    // The error band needs counter signatures (and a fitted model).
    for (const ErrorRow &row : report.rows) {
        EXPECT_LT(std::abs(row.errorPct), 15.0)
            << row.workload << "/" << row.rung;
    }
    EXPECT_LT(report.medianAbsErrorPct, 10.0);
}

/** The runner hands each rung the caller's machine, keeps every
 *  result, and names each rung that failed its app's own check. */
TEST(RunLadder, NamesEveryInvalidRung)
{
    apps::App stub;
    stub.name = "stub";
    stub.rungs = {"Good", "Bad", "Worse"};
    stub.run = [](std::size_t rung, const machine::MachineConfig &mc,
                  const splitc::SplitcConfig &) {
        apps::RungResult r;
        r.elapsed = 100 * (rung + 1) * mc.numPes;
        r.valid = rung == 0;
        r.computeCyclesPerPe = 7;
        return r;
    };

    const std::vector<LadderPoint> points =
        runLadder(stub, countedT3d(4));
    ASSERT_EQ(points.size(), 3u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].result.elapsed, 400 * (i + 1));
        EXPECT_EQ(points[i].sig.workload, "stub");
        EXPECT_EQ(points[i].sig.rung, stub.rungs[i]);
        EXPECT_EQ(points[i].sig.pes, 4.0);
        EXPECT_EQ(points[i].sig.computeCyclesPerPe, 7.0);
        EXPECT_TRUE(points[i].sig.perPe.empty());
    }
    std::ostringstream err;
    EXPECT_FALSE(allRungsValid(points, err));
    EXPECT_EQ(err.str(), "error: stub/Bad @ 4 PEs failed its own check\n"
                         "error: stub/Worse @ 4 PEs failed its own check\n");
    std::ostringstream none;
    EXPECT_TRUE(allRungsValid({points[0]}, none));
    EXPECT_EQ(none.str(), "");
}

TEST(Validate, SummarizeComputesMediansAndFlags)
{
    std::vector<ErrorRow> rows;
    for (double e : {1.0, -2.0, 3.0, -12.0}) {
        ErrorRow r;
        r.workload = e > 0 ? "a" : "b";
        r.errorPct = e;
        rows.push_back(std::move(r));
    }
    rows[0].flags.push_back("limit path");
    const ValidationReport report = summarize(std::move(rows), 10.0);
    EXPECT_DOUBLE_EQ(report.medianAbsErrorPct, 2.5);
    EXPECT_DOUBLE_EQ(report.maxAbsErrorPct, 12.0);
    // Row 0 is flagged (composer flag), row 3 breaches the band.
    EXPECT_EQ(report.flaggedRows, 2u);
    ASSERT_EQ(report.perWorkloadMedian.size(), 2u);
    const std::string table = reportMarkdown(report);
    EXPECT_NE(table.find("limit path"), std::string::npos);
    EXPECT_NE(table.find("Median |error|"), std::string::npos);
}

} // namespace
} // namespace t3dsim::model
