#include "model/primitives.hh"

#include <algorithm>
#include <ostream>

#include "sim/json_writer.hh"

namespace t3dsim::model
{

namespace
{

/**
 * One residual-ordered fit group: the counters it prices and the
 * sweeps whose pooled points identify them. Groups run in order;
 * each subtracts every earlier-priced counter's contribution before
 * solving, so a group's sweeps may freely contain activity that an
 * earlier group already explained (a put stream still retires write-
 * buffer lines; a get group still stores its results locally).
 */
struct FitGroup
{
    const char *name;
    std::vector<const char *> counters;
    std::vector<const char *> sweeps;
};

const std::vector<FitGroup> &
fitGroups()
{
    static const std::vector<FitGroup> groups = {
        {"local_read_hit", {"l1Hits"}, {"local_read_hit"}},
        {"local_write",
         {"wbRetires", "wbMerges"},
         {"local_write_lines", "local_write_merged"}},
        {"local_read_miss", {"l1Misses"}, {"local_read_miss"}},
        {"dram_page_miss", {"dramPageMisses"}, {"local_read_offpage"}},
        {"remote_read",
         {"remoteReads", "torusHops"},
         {"splitc_read_fixed", "splitc_read_distance"}},
        {"annex_update", {"annexFaults"}, {"splitc_read_alternate"}},
        {"remote_write", {"remoteWriteLines"}, {"splitc_put_stream"}},
        {"prefetch", {"prefetchIssues"}, {"splitc_get_groups"}},
        {"prefetch_stall", {"prefetchFullStalls"}, {"splitc_get_deep"}},
        {"message_send", {"msgSends"}, {"msg_send"}},
        {"message_dispatch", {"msgInterrupts"}, {"msg_dispatch"}},
        {"fetch_inc", {"fetchIncRoundTrips"}, {"fetch_inc"}},
        {"barrier", {"barriers"}, {"barrier_pes"}},
    };
    return groups;
}

CostTerm
makeTerm(const char *name, const char *counter, double beta,
         const char *paper, const char *note = "",
         bool flagOnNonzero = false)
{
    CostTerm t;
    t.name = name;
    t.counter = counter;
    t.beta = beta;
    t.paper = paper;
    t.note = note;
    t.flagOnNonzero = flagOnNonzero;
    return t;
}

/** Priced + direct contribution of one point, model terms only. */
double
pricedContribution(const CostModel &model, const SweepPoint &p,
                   const std::vector<const char *> &exceptCounters)
{
    double sum = 0;
    for (const auto &[name, value] : p.counters) {
        bool skipped = false;
        for (const char *c : exceptCounters) {
            if (name == c) {
                skipped = true;
                break;
            }
        }
        if (skipped)
            continue;
        if (model.isDirect(name))
            sum += value;
        else
            sum += model.beta(name) * value;
    }
    return sum;
}

} // namespace

const CostTerm *
CostModel::termForCounter(const std::string &counter) const
{
    for (const CostTerm &t : terms) {
        if (t.counter == counter)
            return &t;
    }
    return nullptr;
}

double
CostModel::beta(const std::string &counter) const
{
    const CostTerm *t = termForCounter(counter);
    return t ? t->beta : 0;
}

bool
CostModel::isDirect(const std::string &counter) const
{
    return std::find(directCycleCounters.begin(),
                     directCycleCounters.end(),
                     counter) != directCycleCounters.end();
}

CostModel
defaultCostModel()
{
    CostModel m;
    m.directCycleCounters = {"wbStallCycles", "bltSetupCycles",
                             "bltTransferCycles",
                             "barrierWaitCycles"};
    m.terms = {
        makeTerm("l1_hit", "l1Hits", 1, "Fig. 1"),
        makeTerm("l1_miss", "l1Misses", 23, "Fig. 1",
                 "includes the DRAM page-hit access behind the miss"),
        makeTerm("tlb_miss", "tlbMisses", 35, "Fig. 1",
                 "assumed Tlb::Config::missPenaltyCycles; the T3D's "
                 "4 MiB pages keep this near zero in applications"),
        makeTerm("wb_merge", "wbMerges", 1, "Fig. 5"),
        makeTerm("wb_stall", "wbStalls", 0, "Fig. 5",
                 "folded: stall cycles carried by wbStallCycles"),
        makeTerm("wb_retire", "wbRetires", 7, "Fig. 5",
                 "store issue plus the overlapped line drain"),
        makeTerm("dram_page_hit", "dramPageHits", 0, "Fig. 1",
                 "folded into l1_miss and wb_retire"),
        makeTerm("dram_page_miss", "dramPageMisses", 6, "Fig. 1",
                 "off-page penalty over the page-hit access"),
        makeTerm("annex_hit", "annexHits", 0, "§3",
                 "folded into remote_read / remote_write (every "
                 "remote access performs the annex lookup)"),
        makeTerm("annex_update", "annexFaults", 23, "§3"),
        makeTerm("prefetch_issue", "prefetchIssues", 30, "Fig. 6",
                 "steady-state pipelined cost per fetched word"),
        makeTerm("prefetch_drain", "prefetchDrains", 0, "Fig. 6",
                 "folded into prefetch_issue (issues == drains)"),
        makeTerm("prefetch_full_stall", "prefetchFullStalls", 25,
                 "Fig. 6"),
        makeTerm("blt_transfer", "bltTransfers", 0, "Fig. 8",
                 "folded: cycles carried by bltSetupCycles and "
                 "bltTransferCycles"),
        makeTerm("fetch_inc", "fetchIncRoundTrips", 142, "Tab. 4"),
        makeTerm("barrier", "barriers", 10, "§7",
                 "start/end overhead; the wait (latency + skew) is "
                 "carried by barrierWaitCycles"),
        makeTerm("msg_send", "msgSends", 122, "Tab. 4"),
        makeTerm("msg_interrupt", "msgInterrupts", 3750, "Tab. 4",
                 "~25 us interrupt dispatch at 150 MHz"),
        makeTerm("msg_spill", "msgSpills", 0, "§7.3", "limit path",
                 true),
        makeTerm("prefetch_spill", "prefetchSpills", 0, "Fig. 6",
                 "limit path", true),
        makeTerm("blt_engine_stall", "bltEngineStalls", 0, "§6.2",
                 "limit path", true),
        makeTerm("am_overflow", "amOverflows", 0, "§7.4",
                 "limit path", true),
        makeTerm("remote_read", "remoteReads", 88, "Fig. 4",
                 "blocking uncached read at zero hops"),
        makeTerm("remote_write_line", "remoteWriteLines", 17,
                 "Fig. 5/7",
                 "steady-state per injected line in a put stream"),
        makeTerm("torus_hop", "torusHops", 2, "Fig. 4"),
    };
    return m;
}

CostModel
fitCostModel(const std::vector<Sweep> &sweeps, FitReport *report)
{
    CostModel model = defaultCostModel();
    const auto warn = [&](const std::string &w) {
        if (report)
            report->warnings.push_back(w);
    };

    for (const FitGroup &group : fitGroups()) {
        std::vector<const SweepPoint *> pts;
        std::string sources;
        for (const char *name : group.sweeps) {
            const Sweep *s = findSweep(sweeps, name);
            if (!s) {
                warn(std::string(group.name) + ": sweep " + name +
                     " missing");
                continue;
            }
            if (!sources.empty())
                sources += ",";
            sources += name;
            for (const SweepPoint &p : s->points)
                pts.push_back(&p);
        }
        if (pts.empty()) {
            warn(std::string(group.name) +
                 ": no sweep data, keeping assumed coefficients");
            continue;
        }

        std::vector<std::vector<double>> rows;
        std::vector<double> y;
        rows.reserve(pts.size());
        y.reserve(pts.size());
        for (const SweepPoint *p : pts) {
            std::vector<double> row;
            row.reserve(group.counters.size());
            for (const char *c : group.counters)
                row.push_back(p->counter(c));
            rows.push_back(std::move(row));
            y.push_back(p->cycles -
                        pricedContribution(model, *p, group.counters));
        }

        std::vector<double> beta;
        if (!solveLeastSquares(rows, y, beta)) {
            warn(std::string(group.name) +
                 ": singular system, keeping assumed coefficients");
            continue;
        }

        for (std::size_t j = 0; j < group.counters.size(); ++j) {
            for (CostTerm &t : model.terms) {
                if (t.counter == group.counters[j]) {
                    if (beta[j] < 0) {
                        warn(std::string(group.name) + ": " +
                             t.counter + " fitted negative (" +
                             std::to_string(beta[j]) +
                             "), clamped to 0");
                        beta[j] = 0;
                        t.clamped = true;
                    }
                    t.beta = beta[j];
                    t.fitted = true;
                    t.sweeps = sources;
                }
            }
        }

        // Quality: does the full model (all priced counters + the
        // freshly fitted group) explain the group's total cycles?
        std::vector<double> predicted, observed;
        for (const SweepPoint *p : pts) {
            predicted.push_back(pricedContribution(model, *p, {}));
            observed.push_back(p->cycles);
        }
        const FitQuality q = qualityFromPairs(predicted, observed);
        for (const char *c : group.counters) {
            for (CostTerm &t : model.terms) {
                if (t.counter == c)
                    t.quality = q;
            }
        }
    }

    // Headline curves.
    if (const Sweep *s = findSweep(sweeps, "blt_read"))
        model.bltRead = fitLinear(s->xyPoints());
    else
        warn("blt_read sweep missing");
    if (const Sweep *s = findSweep(sweeps, "blt_write"))
        model.bltWrite = fitLinear(s->xyPoints());
    if (const Sweep *s = findSweep(sweeps, "bulk_get_prefetch"))
        model.bulkGetPrefetch = fitLinear(s->xyPoints());
    else
        warn("bulk_get_prefetch sweep missing");
    if (const Sweep *s = findSweep(sweeps, "prefetch_group"))
        model.prefetchGroup = fitLinear(s->xyPoints());
    if (const Sweep *s = findSweep(sweeps, "barrier_pes"))
        model.barrierScaling = fitScaling(s->xyPoints());

    // Fig. 8 crossover: solve prefetch-pipe vs BLT cost equality.
    const double slopeGap =
        model.bulkGetPrefetch.slope - model.bltRead.slope;
    if (slopeGap > 0 &&
        model.bltRead.intercept > model.bulkGetPrefetch.intercept) {
        model.bltCrossoverBytes =
            (model.bltRead.intercept - model.bulkGetPrefetch.intercept) /
            slopeGap;
    }
    return model;
}

namespace
{

void
writeLinearFit(sim::JsonWriter &w, const char *name, const LinearFit &fit)
{
    w.key(name).beginObject().member("intercept", fit.intercept);
    w.member("slope", fit.slope).member("r2", fit.quality.r2);
    w.member("points", fit.quality.points).endObject();
}

bool
readLinearFit(const Json &j, LinearFit &fit)
{
    if (!j.isObject())
        return false;
    fit.intercept = j.numberOr("intercept", 0);
    fit.slope = j.numberOr("slope", 0);
    fit.quality.r2 = j.numberOr("r2", 0);
    fit.quality.points =
        static_cast<std::size_t>(j.numberOr("points", 0));
    return true;
}

} // namespace

void
writeModelJson(std::ostream &os, const CostModel &model)
{
    using Layout = sim::JsonWriter::Layout;
    sim::JsonWriter w(os);
    w.beginObject(Layout::Lines).member("schema", "t3dsim-model-v1");
    w.key("terms").beginArray(Layout::Lines);
    for (const CostTerm &t : model.terms) {
        w.beginObject().member("name", t.name).member("counter", t.counter);
        w.member("cycles_per_unit", t.beta).member("fitted", t.fitted);
        w.member("flag_on_nonzero", t.flagOnNonzero);
        w.member("clamped", t.clamped);
        if (!t.sweeps.empty())
            w.member("sweeps", t.sweeps);
        if (!t.paper.empty())
            w.member("paper", t.paper);
        if (!t.note.empty())
            w.member("note", t.note);
        if (t.quality.points > 0) {
            w.key("fit").beginObject().member("points", t.quality.points);
            w.member("r2", t.quality.r2);
            w.member("median_rel_err", t.quality.medianRelErr);
            w.member("max_rel_err", t.quality.maxRelErr).endObject();
        }
        w.endObject();
    }
    w.endArray().key("direct_cycle_counters").beginArray();
    for (const std::string &c : model.directCycleCounters)
        w.value(c);
    w.endArray().key("curves").beginObject(Layout::Lines);
    writeLinearFit(w, "blt_read", model.bltRead);
    writeLinearFit(w, "blt_write", model.bltWrite);
    writeLinearFit(w, "bulk_get_prefetch", model.bulkGetPrefetch);
    writeLinearFit(w, "prefetch_group", model.prefetchGroup);
    const ScalingFit &barrier = model.barrierScaling;
    w.endObject().key("barrier_scaling").beginObject();
    w.member("term", scalingTermName(barrier.term));
    w.member("intercept", barrier.intercept).member("slope", barrier.slope);
    w.member("r2", barrier.quality.r2).endObject();
    w.member("blt_crossover_bytes", model.bltCrossoverBytes).endObject();
}

bool
readModelJson(const Json &doc, CostModel &model, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    if (!doc.isObject())
        return fail("not a JSON object");
    if (doc["schema"].str() != "t3dsim-model-v1")
        return fail("schema is not t3dsim-model-v1");

    model = CostModel{};
    const Json &terms = doc["terms"];
    if (!terms.isArray())
        return fail("missing \"terms\" array");
    for (const Json &jt : terms.array()) {
        CostTerm t;
        t.name = jt["name"].str();
        t.counter = jt["counter"].str();
        if (t.name.empty() || t.counter.empty())
            return fail("term without name/counter");
        if (!jt["cycles_per_unit"].isNumber())
            return fail("term " + t.name + " without cycles_per_unit");
        t.beta = jt["cycles_per_unit"].number();
        t.fitted = jt["fitted"].boolean();
        t.flagOnNonzero = jt["flag_on_nonzero"].boolean();
        t.clamped = jt["clamped"].boolean();
        t.sweeps = jt["sweeps"].str();
        t.paper = jt["paper"].str();
        t.note = jt["note"].str();
        const Json &fit = jt["fit"];
        if (fit.isObject()) {
            t.quality.points =
                static_cast<std::size_t>(fit.numberOr("points", 0));
            t.quality.r2 = fit.numberOr("r2", 0);
            t.quality.medianRelErr = fit.numberOr("median_rel_err", 0);
            t.quality.maxRelErr = fit.numberOr("max_rel_err", 0);
        }
        model.terms.push_back(std::move(t));
    }
    const Json &direct = doc["direct_cycle_counters"];
    if (!direct.isArray())
        return fail("missing \"direct_cycle_counters\"");
    for (const Json &jd : direct.array())
        model.directCycleCounters.push_back(jd.str());

    const Json &curves = doc["curves"];
    readLinearFit(curves["blt_read"], model.bltRead);
    readLinearFit(curves["blt_write"], model.bltWrite);
    readLinearFit(curves["bulk_get_prefetch"], model.bulkGetPrefetch);
    readLinearFit(curves["prefetch_group"], model.prefetchGroup);

    const Json &scaling = doc["barrier_scaling"];
    if (scaling.isObject()) {
        ScalingTerm term = ScalingTerm::Constant;
        if (!scalingTermFromName(scaling["term"].str(), term))
            return fail("unknown barrier scaling term");
        model.barrierScaling.term = term;
        model.barrierScaling.intercept =
            scaling.numberOr("intercept", 0);
        model.barrierScaling.slope = scaling.numberOr("slope", 0);
        model.barrierScaling.quality.r2 = scaling.numberOr("r2", 0);
    }
    model.bltCrossoverBytes = doc.numberOr("blt_crossover_bytes", 0);
    if (error)
        error->clear();
    return true;
}

bool
loadCostModelFile(const std::string &path, CostModel &model,
                  std::string &error)
{
    if (path.empty()) {
        model = defaultCostModel();
        error.clear();
        return true;
    }
    std::string parse_err;
    const Json doc = Json::parseFile(path, &parse_err);
    if (!parse_err.empty()) {
        error = path + ": " + parse_err;
        return false;
    }
    if (!readModelJson(doc, model, &error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

} // namespace t3dsim::model
