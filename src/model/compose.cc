#include "model/compose.hh"

#include <algorithm>

#include "probes/counters.hh"

namespace t3dsim::model
{

double
Signature::counter(const std::string &name) const
{
    for (const auto &[k, v] : perPe) {
        if (k == name)
            return v;
    }
    return 0;
}

void
Signature::setCounter(const std::string &name, double value)
{
    for (auto &[k, v] : perPe) {
        if (k == name) {
            v = value;
            return;
        }
    }
    perPe.emplace_back(name, value);
}

Signature
signatureFromTotals(const probes::PerfCounters &totals,
                    std::uint32_t pes)
{
    Signature sig;
    sig.pes = pes;
    const auto &infos = probes::PerfCounters::infos();
    for (std::size_t i = 0; i < probes::PerfCounters::numCounters;
         ++i) {
        const double v = double(totals.value(i));
        if (v != 0)
            sig.perPe.emplace_back(infos[i].name,
                                   v / double(pes ? pes : 1));
    }
    return sig;
}

Prediction
predict(const CostModel &model, const Signature &sig)
{
    Prediction pred;
    if (sig.computeCyclesPerPe != 0) {
        pred.breakdown.emplace_back("compute",
                                    sig.computeCyclesPerPe);
        pred.cycles += sig.computeCyclesPerPe;
    }
    for (const auto &[name, value] : sig.perPe) {
        if (value == 0)
            continue;
        if (model.isDirect(name)) {
            pred.breakdown.emplace_back("direct:" + name, value);
            pred.cycles += value;
            continue;
        }
        const CostTerm *term = model.termForCounter(name);
        if (!term) {
            pred.flags.push_back("counter " + name +
                                 " unknown to the model");
            continue;
        }
        if (term->flagOnNonzero && value > 0) {
            pred.flags.push_back(
                term->counter + " nonzero (" +
                std::to_string(value) +
                "/PE): limit path, linear composition unreliable");
        }
        if (term->clamped && value > 0) {
            pred.flags.push_back(
                term->counter + " nonzero (" +
                std::to_string(value) +
                "/PE): fitted negative and clamped to 0, unpriced");
        }
        if (term->beta == 0)
            continue;
        const double cycles = term->beta * value;
        pred.breakdown.emplace_back(term->name, cycles);
        pred.cycles += cycles;
    }
    std::sort(pred.breakdown.begin(), pred.breakdown.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    return pred;
}

SignatureModel
fitSignatureScaling(const std::vector<Signature> &measured)
{
    SignatureModel sm;
    if (measured.empty())
        return sm;
    sm.workload = measured.front().workload;
    sm.rung = measured.front().rung;
    for (const Signature &sig : measured)
        sm.trainedPes.push_back(sig.pes);

    // Union of counter names across the measured signatures (a
    // counter absent at small P may appear at large P).
    std::vector<std::string> names;
    for (const Signature &sig : measured) {
        for (const auto &[name, value] : sig.perPe) {
            if (std::find(names.begin(), names.end(), name) ==
                names.end())
                names.push_back(name);
        }
    }

    for (const std::string &name : names) {
        std::vector<FitPoint> pts;
        for (const Signature &sig : measured)
            pts.push_back({sig.pes, sig.counter(name)});
        sm.counterFits.emplace_back(name, fitScaling(pts));
    }

    std::vector<FitPoint> compute;
    for (const Signature &sig : measured)
        compute.push_back({sig.pes, sig.computeCyclesPerPe});
    sm.computeFit = fitScaling(compute);
    return sm;
}

Signature
SignatureModel::at(double pes) const
{
    Signature sig;
    sig.workload = workload;
    sig.rung = rung;
    sig.pes = pes;
    for (const auto &[name, fit] : counterFits) {
        const double v = fit.eval(pes);
        if (v > 0)
            sig.perPe.emplace_back(name, v);
    }
    sig.computeCyclesPerPe = std::max(0.0, computeFit.eval(pes));
    return sig;
}

} // namespace t3dsim::model
