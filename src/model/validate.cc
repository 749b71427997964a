#include "model/validate.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "model/compose.hh"

namespace t3dsim::model
{

namespace
{

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace

std::vector<LadderPoint>
runLadder(const apps::App &app, const machine::MachineConfig &mc)
{
    std::vector<LadderPoint> ladder;
    for (std::size_t i = 0; i < app.rungs.size(); ++i) {
        LadderPoint pt;
        pt.result = app.run(i, mc, {});
        pt.sig = signatureFromTotals(pt.result.counters, mc.numPes);
        pt.sig.workload = app.name;
        pt.sig.rung = app.rungs[i];
        pt.sig.computeCyclesPerPe = pt.result.computeCyclesPerPe;
        ladder.push_back(std::move(pt));
    }
    return ladder;
}

machine::MachineConfig
countedT3d(std::uint32_t pes)
{
    machine::MachineConfig mc = machine::MachineConfig::t3d(pes);
    mc.observe.counters = true;
    return mc;
}

bool
allRungsValid(const std::vector<LadderPoint> &points, std::ostream &err)
{
    bool valid = true;
    for (const LadderPoint &pt : points) {
        if (pt.result.valid)
            continue;
        err << "error: " << pt.sig.workload << "/" << pt.sig.rung << " @ "
            << fmt("%.0f", pt.sig.pes) << " PEs failed its own check\n";
        valid = false;
    }
    return valid;
}

double
nsPerPrediction(const CostModel &cost,
                const std::vector<LadderPoint> &points)
{
    if (points.empty())
        return 0;
    const int reps = 1000;
    double acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const LadderPoint &pt : points)
            acc += predict(cost, pt.sig).cycles;
    }
    const std::chrono::duration<double, std::nano> ns =
        std::chrono::steady_clock::now() - t0;
    volatile double sink = acc;
    (void)sink;
    return ns.count() / (double(reps) * double(points.size()));
}

std::vector<ErrorRow>
validateLadder(const CostModel &model,
               const std::vector<LadderPoint> &ladder)
{
    std::vector<ErrorRow> rows;
    for (const LadderPoint &pt : ladder) {
        const Prediction pred = predict(model, pt.sig);
        ErrorRow row;
        row.workload = pt.sig.workload;
        row.rung = pt.sig.rung;
        row.pes = pt.sig.pes;
        row.simulatedCycles = double(pt.result.elapsed);
        row.predictedCycles = pred.cycles;
        row.errorPct = row.simulatedCycles != 0
            ? 100.0 * (pred.cycles - row.simulatedCycles) /
                row.simulatedCycles
            : 0;
        row.flags = pred.flags;
        rows.push_back(std::move(row));
    }
    return rows;
}

ValidationReport
summarize(std::vector<ErrorRow> rows, double band_pct)
{
    ValidationReport report;
    report.rows = std::move(rows);

    std::vector<double> abs_errors;
    std::vector<std::pair<std::string, std::vector<double>>> per_app;
    for (const ErrorRow &row : report.rows) {
        const double e = std::abs(row.errorPct);
        abs_errors.push_back(e);
        report.maxAbsErrorPct = std::max(report.maxAbsErrorPct, e);
        if (e > band_pct || !row.flags.empty())
            ++report.flaggedRows;
        auto it = std::find_if(per_app.begin(), per_app.end(),
                               [&](const auto &p) {
                                   return p.first == row.workload;
                               });
        if (it == per_app.end()) {
            per_app.emplace_back(row.workload,
                                 std::vector<double>{e});
        } else {
            it->second.push_back(e);
        }
    }
    report.medianAbsErrorPct = medianOf(abs_errors);
    for (auto &[name, errors] : per_app)
        report.perWorkloadMedian.emplace_back(
            name, medianOf(std::move(errors)));
    return report;
}

std::string
reportMarkdown(const ValidationReport &report)
{
    std::string out;
    out += "| workload | rung | PEs | simulated | predicted | error "
           "| flags |\n";
    out += "|---|---|---:|---:|---:|---:|---|\n";
    for (const ErrorRow &row : report.rows) {
        out += "| " + row.workload + " | " + row.rung + " | " +
            fmt("%.0f", row.pes) + " | " +
            fmt("%.0f", row.simulatedCycles) + " | " +
            fmt("%.0f", row.predictedCycles) + " | " +
            fmt("%+.1f%%", row.errorPct) + " | ";
        for (std::size_t i = 0; i < row.flags.size(); ++i)
            out += (i ? "; " : "") + row.flags[i];
        out += " |\n";
    }
    out += "\nMedian |error|: " +
        fmt("%.1f%%", report.medianAbsErrorPct) +
        " (max " + fmt("%.1f%%", report.maxAbsErrorPct) + ", " +
        std::to_string(report.flaggedRows) + "/" +
        std::to_string(report.rows.size()) + " rows flagged)\n";
    for (const auto &[name, median] : report.perWorkloadMedian)
        out += "  - " + name + ": median |error| " +
            fmt("%.1f%%", median) + "\n";
    return out;
}

} // namespace t3dsim::model
