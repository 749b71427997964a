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
 *       median |error| exceeds the band (default 10%).
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
#include <cstring>
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

using namespace t3dsim;

namespace
{

std::vector<std::uint32_t>
parsePeList(const std::string &s)
{
    std::vector<std::uint32_t> pes;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        pes.push_back(std::uint32_t(std::stoul(item)));
    return pes;
}

/** Measure + fit, or load a t3dsim-model-v1 file when given. */
bool
obtainModel(const std::string &model_path, model::CostModel &cost,
            std::vector<model::Sweep> *sweeps_out = nullptr)
{
    if (!model_path.empty()) {
        std::string error;
        const model::Json doc = model::Json::parseFile(model_path,
                                                       &error);
        if (!model::readModelJson(doc, cost, &error)) {
            std::cerr << "error: " << model_path << ": " << error
                      << "\n";
            return false;
        }
        return true;
    }
    std::string error;
    std::vector<model::Sweep> sweeps = model::measureAll(&error);
    if (sweeps.empty()) {
        std::cerr << "error: sweeps failed: " << error << "\n";
        return false;
    }
    model::FitReport report;
    cost = model::fitCostModel(sweeps, &report);
    for (const std::string &w : report.warnings)
        std::cerr << "fit warning: " << w << "\n";
    if (sweeps_out)
        *sweeps_out = std::move(sweeps);
    return true;
}

int
cmdSweeps(const std::string &out_path)
{
    std::string error;
    const std::vector<model::Sweep> sweeps = model::measureAll(&error);
    if (sweeps.empty()) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    model::writeSweepsJson(os, sweeps);
    std::size_t points = 0;
    for (const model::Sweep &s : sweeps)
        points += s.points.size();
    std::cout << "wrote " << out_path << " (" << sweeps.size()
              << " sweeps, " << points << " points)\n";
    return os ? 0 : 1;
}

int
cmdFit(const std::string &sweeps_path, const std::string &out_path)
{
    std::vector<model::Sweep> sweeps;
    std::string error;
    if (!sweeps_path.empty()) {
        const model::Json doc = model::Json::parseFile(sweeps_path,
                                                       &error);
        if (!model::readSweepsJson(doc, sweeps, &error)) {
            std::cerr << "error: " << sweeps_path << ": " << error
                      << "\n";
            return 1;
        }
    } else {
        sweeps = model::measureAll(&error);
        if (sweeps.empty()) {
            std::cerr << "error: sweeps failed: " << error << "\n";
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
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    model::writeModelJson(os, cost);
    std::cout << "wrote " << out_path << "\n";
    return os ? 0 : 1;
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

/** Mean nanoseconds per predict() call over the validation rows. */
double
timePredictions(const model::CostModel &cost,
                const std::vector<model::LadderPoint> &points)
{
    if (points.empty())
        return 0;
    const int reps = 1000;
    double acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const model::LadderPoint &pt : points)
            acc += model::predict(cost, pt.sig).cycles;
    }
    const auto t1 = std::chrono::steady_clock::now();
    volatile double sink = acc;
    (void)sink;
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t1 - t0)
                      .count()) /
        (double(reps) * double(points.size()));
}

int
cmdValidate(bool quick, std::string pes_list,
            const std::string &model_path, std::string out_path,
            double band_pct)
{
    if (pes_list.empty())
        pes_list = quick ? "32" : "32,256";
    if (out_path.empty())
        out_path = "BENCH_model_validate.json";
    const std::vector<std::uint32_t> pe_counts =
        parsePeList(pes_list);

    model::CostModel cost;
    if (!obtainModel(model_path, cost))
        return 1;

    // Simulate every ladder once, keeping the points for timing.
    std::vector<model::LadderPoint> all_points;
    std::vector<model::ErrorRow> rows;
    const std::vector<apps::App> suite = validationSuite(quick);
    for (std::uint32_t pes : pe_counts) {
        for (const apps::App &app : suite) {
            const std::vector<model::LadderPoint> ladder =
                model::runLadder(app, pes);
            auto batch = model::validateLadder(cost, ladder);
            rows.insert(rows.end(), batch.begin(), batch.end());
            all_points.insert(all_points.end(), ladder.begin(),
                              ladder.end());
        }
    }
    const model::ValidationReport report =
        model::summarize(std::move(rows), band_pct);
    std::cout << model::reportMarkdown(report);

    const double ns_per_predict = timePredictions(cost, all_points);
    std::printf("model eval: %.0f ns/prediction\n", ns_per_predict);

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "error: could not write " << out_path << "\n";
        return 1;
    }
    os.precision(17);
    os << "{\n  \"bench\": \"model_validate\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"band_pct\": " << band_pct << ",\n"
       << "  \"median_abs_error_pct\": " << report.medianAbsErrorPct
       << ",\n  \"max_abs_error_pct\": " << report.maxAbsErrorPct
       << ",\n  \"flagged_rows\": " << report.flaggedRows
       << ",\n  \"ns_per_prediction\": " << ns_per_predict
       << ",\n  \"per_workload_median_pct\": {";
    for (std::size_t i = 0; i < report.perWorkloadMedian.size(); ++i) {
        const auto &[name, median] = report.perWorkloadMedian[i];
        os << (i ? ", " : "") << "\"" << name << "\": " << median;
    }
    os << "},\n  \"rows\": [\n";
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
        const model::ErrorRow &r = report.rows[i];
        os << "    {\"workload\": \"" << r.workload
           << "\", \"rung\": \"" << r.rung << "\", \"pes\": " << r.pes
           << ", \"sim_cycles\": " << r.simulatedCycles
           << ", \"predicted_cycles\": " << r.predictedCycles
           << ", \"error_pct\": " << r.errorPct
           << ", \"flags\": " << r.flags.size() << "}"
           << (i + 1 < report.rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
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
               std::string train_list, double scale,
               const std::string &model_path)
{
    if (train_list.empty())
        train_list = "8,16,32,64";
    const std::vector<std::uint32_t> train = parsePeList(train_list);

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
            auto l = model::runLadder(app, pes);
            points.insert(points.end(), l.begin(), l.end());
        }
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
    std::string cmd = argc > 1 ? argv[1] : "";
    bool quick = false;
    std::string out_path, sweeps_path, model_path, pes_list,
        train_list, workload;
    double band_pct = 10.0, target_pes = 0, scale = 1.0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--sweeps=", 0) == 0)
            sweeps_path = arg.substr(9);
        else if (arg.rfind("--model=", 0) == 0)
            model_path = arg.substr(8);
        else if (arg.rfind("--pes=", 0) == 0)
            pes_list = arg.substr(6);
        else if (arg.rfind("--train=", 0) == 0)
            train_list = arg.substr(8);
        else if (arg.rfind("--workload=", 0) == 0)
            workload = arg.substr(11);
        else if (arg.rfind("--band=", 0) == 0)
            band_pct = std::stod(arg.substr(7));
        else if (arg.rfind("--scale=", 0) == 0)
            scale = std::stod(arg.substr(8));
        else {
            std::cerr << "error: unknown option " << arg << "\n";
            return 2;
        }
    }

    if (cmd == "sweeps")
        return cmdSweeps(out_path.empty() ? "model_sweeps.json"
                                          : out_path);
    if (cmd == "fit")
        return cmdFit(sweeps_path,
                      out_path.empty() ? "model_fit.json" : out_path);
    if (cmd == "validate")
        return cmdValidate(quick, pes_list, model_path, out_path,
                           band_pct);
    if (cmd == "extrapolate") {
        if (pes_list.empty()) {
            std::cerr << "error: extrapolate needs --pes=N\n";
            return 2;
        }
        target_pes = std::stod(pes_list);
        return cmdExtrapolate(target_pes, workload, train_list, scale,
                              model_path);
    }
    std::cerr
        << "usage: t3d-model <sweeps|fit|validate|extrapolate> "
           "[options]\n"
           "  sweeps       [--out=F]\n"
           "  fit          [--sweeps=F] [--out=F]\n"
           "  validate     [--quick] [--pes=A,B] [--model=F] "
           "[--out=F] [--band=PCT]\n"
           "  extrapolate  --pes=N [--workload=W] [--train=A,B,C] "
           "[--scale=K] [--model=F]\n"
           "docs/MODEL.md has the handbook.\n";
    return cmd.empty() ? 2 : 2;
}
