/**
 * @file
 * `t3d-model` — the analytical-model CLI (docs/MODEL.md §7): measure
 * the micro-sweeps, fit the per-primitive cost model, validate the
 * composed predictions against simulated app ladders, and answer
 * extrapolation questions ("predicted cycles at 256K PEs?") in host
 * milliseconds instead of simulation hours.
 *
 *   t3d-model sweeps [--out=F]
 *       Run the counter-isolated micro-sweeps on fresh machines and
 *       write a t3dsim-sweeps-v1 file (default model_sweeps.json).
 *
 *   t3d-model fit [--sweeps=F] [--out=F]
 *       Fit the cost model (re-measuring when --sweeps is absent)
 *       and write a t3dsim-model-v1 file (default model_fit.json);
 *       prints every fitted coefficient with residual diagnostics.
 *
 *   t3d-model validate [--quick] [--pes=A,B] [--model=F] [--out=F]
 *                      [--band=PCT]
 *       Simulate the em3d/bsort/qcd ladders at each PE count, diff
 *       against the composed predictions, print the error-band table
 *       and write BENCH_model_validate.json. Exits non-zero when the
 *       median |error| exceeds the band (default 10%), or at once,
 *       naming it, when a rung fails its app's own check.
 *
 *   t3d-model extrapolate --pes=N [--workload=W] [--train=A,B,C]
 *                         [--scale=K] [--model=F]
 *       Fit per-rung signature scaling over small training tori,
 *       evaluate the composition at N PEs (and K x problem size) and
 *       report predicted cycles, host-memory footprint to simulate
 *       at that scale, and the model evaluation cost.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "model/compose.hh"
#include "model/measure.hh"
#include "model/primitives.hh"
#include "model/sweep.hh"
#include "model/validate.hh"
#include "sim/json_writer.hh"

#include "cli.hh"

using namespace t3dsim;

namespace
{

/** A comma-separated PE list, each entry parsed whole. */
std::vector<std::uint32_t>
parsePeList(const cli::Args &args, const char *option,
            const std::string &s)
{
    std::vector<std::uint32_t> pes;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        std::uint32_t p = 0;
        if (!cli::parseWhole(item, p))
            args.invalid(option, s);
        pes.push_back(p);
    }
    if (pes.empty())
        args.invalid(option, s);
    return pes;
}

/** Measure + fit, or load a t3dsim-model-v1 file when given. */
bool
obtainModel(const std::string &model_path, model::CostModel &cost)
{
    if (!model_path.empty()) {
        std::string error;
        if (model::loadCostModelFile(model_path, cost, error))
            return true;
        std::cerr << "error: " << error << "\n";
        return false;
    }
    model::FitReport report;
    cost = model::fitCostModel(model::measureAll(), &report);
    for (const std::string &w : report.warnings)
        std::cerr << "fit warning: " << w << "\n";
    return true;
}

int
cmdSweeps(const std::string &out_path)
{
    const std::vector<model::Sweep> sweeps = model::measureAll();
    std::ofstream os(out_path);
    model::writeSweepsJson(os, sweeps);
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    std::size_t points = 0;
    for (const model::Sweep &s : sweeps)
        points += s.points.size();
    std::cout << "wrote " << out_path << " (" << sweeps.size()
              << " sweeps, " << points << " points)\n";
    return 0;
}

int
cmdFit(const std::string &sweeps_path, const std::string &out_path)
{
    std::vector<model::Sweep> sweeps;
    if (sweeps_path.empty()) {
        sweeps = model::measureAll();
    } else {
        std::string error;
        const model::Json doc = model::Json::parseFile(sweeps_path,
                                                       &error);
        if (!model::readSweepsJson(doc, sweeps, &error)) {
            std::cerr << "error: " << sweeps_path << ": " << error
                      << "\n";
            return 1;
        }
    }

    model::FitReport report;
    const model::CostModel cost = model::fitCostModel(sweeps, &report);

    std::printf("%-22s %-20s %12s  %s\n", "term", "counter",
                "cycles/unit", "source");
    for (const model::CostTerm &t : cost.terms) {
        std::printf("%-22s %-20s %12.3f  %s%s\n", t.name.c_str(),
                    t.counter.c_str(), t.beta,
                    t.fitted ? "fit" : "assumed",
                    t.sweeps.empty() ? ""
                                     : (" [" + t.sweeps + "]").c_str());
    }
    std::printf("BLT read: %.0f + %.3f/byte; bulk-get prefetch: "
                "%.0f + %.3f/byte; crossover %.0f bytes\n",
                cost.bltRead.intercept, cost.bltRead.slope,
                cost.bulkGetPrefetch.intercept,
                cost.bulkGetPrefetch.slope, cost.bltCrossoverBytes);
    for (const std::string &w : report.warnings)
        std::cerr << "warning: " << w << "\n";

    std::ofstream os(out_path);
    model::writeModelJson(os, cost);
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    return 0;
}

/** The apps at default configs; --quick shrinks EM3D's graph. */
std::vector<apps::App>
validationSuite(bool quick)
{
    std::vector<apps::App> suite = apps::suite();
    if (quick) {
        em3d::Config em3d_cfg;
        em3d_cfg.nodesPerPe = 100;
        for (apps::App &app : suite) {
            if (app.name == "em3d")
                app = em3d::app(em3d_cfg);
        }
    }
    return suite;
}

int
cmdValidate(bool quick, const std::vector<std::uint32_t> &pe_counts,
            const std::string &model_path, std::string out_path,
            double band_pct)
{
    if (out_path.empty())
        out_path = "BENCH_model_validate.json";

    model::CostModel cost;
    if (!obtainModel(model_path, cost))
        return 1;

    // Simulate every ladder once, keeping the points for timing.
    std::vector<model::LadderPoint> all_points;
    const std::vector<apps::App> suite = validationSuite(quick);
    for (std::uint32_t pes : pe_counts) {
        for (const apps::App &app : suite) {
            const std::vector<model::LadderPoint> ladder =
                model::runLadder(app, model::countedT3d(pes));
            all_points.insert(all_points.end(), ladder.begin(),
                              ladder.end());
        }
    }
    // A rung that failed its app's own check is a broken simulation,
    // not a model error: it is neither priced nor fitted.
    if (!model::allRungsValid(all_points, std::cerr))
        return 1;
    const model::ValidationReport report = model::summarize(
        model::validateLadder(cost, all_points), band_pct);
    std::cout << model::reportMarkdown(report);

    const double ns_per_predict = model::nsPerPrediction(cost, all_points);
    std::printf("model eval: %.0f ns/prediction\n", ns_per_predict);

    // A stream that failed to open ignores the writes; checked below.
    std::ofstream os(out_path);
    using Layout = sim::JsonWriter::Layout;
    sim::JsonWriter w(os);
    w.beginObject(Layout::Lines).member("bench", "model_validate");
    w.member("quick", quick).member("band_pct", band_pct);
    w.member("median_abs_error_pct", report.medianAbsErrorPct);
    w.member("max_abs_error_pct", report.maxAbsErrorPct);
    w.member("flagged_rows", report.flaggedRows);
    w.member("ns_per_prediction", ns_per_predict);
    w.key("per_workload_median_pct").beginObject();
    for (const auto &[name, median] : report.perWorkloadMedian)
        w.member(name, median);
    w.endObject().key("rows").beginArray(Layout::Lines);
    for (const model::ErrorRow &r : report.rows) {
        w.beginObject().member("workload", r.workload);
        w.member("rung", r.rung).member("pes", r.pes);
        w.member("sim_cycles", r.simulatedCycles);
        w.member("predicted_cycles", r.predictedCycles);
        w.member("error_pct", r.errorPct);
        w.member("flags", r.flags.size()).endObject();
    }
    w.endArray().endObject();
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";

    const bool pass = report.medianAbsErrorPct <= band_pct;
    std::cout << "validate: "
              << (pass ? "PASS" : "FAIL (median above band)") << "\n";
    return pass ? 0 : 1;
}

int
cmdExtrapolate(double target_pes, const std::string &workload,
               const std::string &train_list,
               const std::vector<std::uint32_t> &train, double scale,
               const std::string &model_path)
{
    // Resolve the workload before any fitting or simulating.
    std::vector<apps::App> selected;
    std::string names;
    for (apps::App &app : apps::suite()) {
        names += (names.empty() ? "" : ", ") + app.name;
        if (workload.empty() || workload == app.name)
            selected.push_back(std::move(app));
    }
    if (selected.empty()) {
        std::cerr << "error: unknown workload '" << workload
                  << "' (valid: " << names << ")\n";
        return 1;
    }

    model::CostModel cost;
    if (!obtainModel(model_path, cost))
        return 1;

    // Host-memory footprint of *simulating* at the target scale:
    // fit residentModelBytes of a bare machine against torus size.
    std::vector<model::FitPoint> foot;
    for (std::uint32_t pes : train) {
        machine::Machine m(machine::MachineConfig::t3d(pes));
        foot.push_back({double(pes), double(m.residentModelBytes())});
    }
    const model::ScalingFit foot_fit = model::fitScaling(foot);

    // Train signatures per rung at each torus size.
    struct Trained
    {
        std::vector<model::Signature> sigs; // one per train size
    };
    std::vector<Trained> rungs;
    std::vector<std::string> labels;
    for (std::uint32_t pes : train) {
        std::vector<model::LadderPoint> points;
        for (const apps::App &app : selected) {
            auto l = model::runLadder(app, model::countedT3d(pes));
            points.insert(points.end(), l.begin(), l.end());
        }
        if (!model::allRungsValid(points, std::cerr))
            return 1;
        if (rungs.empty()) {
            rungs.resize(points.size());
            for (const model::LadderPoint &pt : points)
                labels.push_back(pt.sig.workload + "/" + pt.sig.rung);
        }
        for (std::size_t i = 0;
             i < points.size() && i < rungs.size(); ++i)
            rungs[i].sigs.push_back(points[i].sig);
    }

    // The extrapolation itself: fit scaling, evaluate, compose —
    // timed, because answering fast IS the feature.
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::pair<std::string, model::Prediction>> predictions;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const model::SignatureModel sm =
            model::fitSignatureScaling(rungs[i].sigs);
        model::Signature sig = sm.at(target_pes);
        if (scale != 1.0) {
            // Problem size scales the per-PE work linearly (both the
            // counted ops and the closed-form compute).
            for (auto &[name, value] : sig.perPe)
                value *= scale;
            sig.computeCyclesPerPe *= scale;
        }
        predictions.emplace_back(labels[i],
                                 model::predict(cost, sig));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double eval_ms =
        double(std::chrono::duration_cast<std::chrono::microseconds>(
                   t1 - t0)
                   .count()) /
        1000.0;

    std::printf("extrapolation to %.0f PEs (problem scale %.1fx), "
                "trained on %s:\n",
                target_pes, scale, train_list.c_str());
    for (const auto &[label, pred] : predictions) {
        std::printf("  %-18s %16.0f cycles (%.3f s at 150 MHz)%s\n",
                    label.c_str(), pred.cycles,
                    pred.cycles / 150.0e6,
                    pred.flags.empty() ? "" : "  [flagged]");
        for (const std::string &f : pred.flags)
            std::printf("    flag: %s\n", f.c_str());
    }
    const double foot_bytes = foot_fit.eval(target_pes);
    std::printf("simulation footprint at %.0f PEs: ~%.1f GiB "
                "(%s fit over bare machines)\n",
                target_pes, foot_bytes / double(1024 * MiB),
                model::scalingTermName(foot_fit.term));
    std::printf("model evaluation: %.2f ms for %zu rungs\n", eval_ms,
                predictions.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    cli::Args args(
        argc, argv,
        "usage: t3d-model <sweeps|fit|validate|extrapolate> "
        "[options]\n"
        "  sweeps       [--out=F]\n"
        "  fit          [--sweeps=F] [--out=F]\n"
        "  validate     [--quick] [--pes=A,B] [--model=F] "
        "[--out=F] [--band=PCT]\n"
        "  extrapolate  --pes=N [--workload=W] [--train=A,B,C] "
        "[--scale=K] [--model=F]\n"
        "docs/MODEL.md has the handbook.\n",
        2);
    const bool quick = args.flag("--quick");
    std::string out_path, sweeps_path, model_path, pes_list,
        train_list = "8,16,32,64", workload;
    double band_pct = 10.0, scale = 1.0;
    args.value("--out", out_path);
    args.value("--sweeps", sweeps_path);
    args.value("--model", model_path);
    args.value("--pes", pes_list);
    args.value("--train", train_list);
    args.value("--workload", workload);
    args.value("--band", band_pct);
    args.value("--scale", scale);
    args.done();

    if (cmd == "sweeps")
        return cmdSweeps(out_path.empty() ? "model_sweeps.json"
                                          : out_path);
    if (cmd == "fit")
        return cmdFit(sweeps_path,
                      out_path.empty() ? "model_fit.json" : out_path);
    if (cmd == "validate") {
        if (pes_list.empty())
            pes_list = quick ? "32" : "32,256";
        return cmdValidate(quick, parsePeList(args, "--pes", pes_list),
                           model_path, out_path, band_pct);
    }
    if (cmd == "extrapolate") {
        double target_pes = 0;
        if (pes_list.empty())
            args.fail("extrapolate needs --pes=N");
        if (!cli::parseWhole(pes_list, target_pes))
            args.invalid("--pes", pes_list);
        return cmdExtrapolate(target_pes, workload, train_list,
                              parsePeList(args, "--train", train_list),
                              scale, model_path);
    }
    args.fail(cmd.empty() ? "missing command"
                          : "unknown command '" + cmd + "'");
}
