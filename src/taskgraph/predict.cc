#include "taskgraph/predict.hh"

#include <algorithm>
#include <map>
#include <string>

#include "model/primitives.hh"
#include "splitc/config.hh"

namespace t3dsim::taskgraph
{

namespace
{

/** Accumulates one PE's cost for one level, bucketed for the
 *  response breakdown. */
struct LevelCost
{
    std::map<std::string, double> buckets;

    void
    add(const std::string &bucket, double cycles)
    {
        if (cycles != 0)
            buckets[bucket] += cycles;
    }

    double
    total() const
    {
        double sum = 0;
        for (const auto &[name, cycles] : buckets)
            sum += cycles;
        return sum;
    }
};

double
lines(std::uint64_t words)
{
    return static_cast<double>((words + 3) / 4);
}

/** Priced word-granular memory traffic: @p words loads (or the
 *  write-buffer line retires for stores). */
double
loadCycles(const model::CostModel &model, std::uint64_t words)
{
    const double misses = lines(words);
    const double hits = static_cast<double>(words) - misses;
    return model.beta("l1Hits") * hits + model.beta("l1Misses") * misses;
}

double
storeLineCycles(const model::CostModel &model, std::uint64_t words)
{
    return model.beta("wbRetires") * lines(words);
}

} // namespace

model::Prediction
predictGraph(const TaskGraph &graph, const Plan &plan,
             const model::CostModel &model)
{
    const splitc::SplitcConfig splitc_defaults;

    // Per-task out-words, to price phase-A staging.
    std::vector<std::uint64_t> outWords(graph.tasks.size(), 0);
    std::vector<std::uint64_t> inWords(graph.tasks.size(), 0);
    for (const LoweredEdge &le : plan.loweredEdges) {
        outWords[graph.edges[le.edge].src] += le.words;
        inWords[graph.edges[le.edge].dst] += le.words;
    }

    model::Prediction pred;
    std::map<std::string, double> totals;

    for (std::uint32_t level = 0; level < plan.levels; ++level) {
        double level_max = 0;
        const LevelCost *argmax = nullptr;
        std::vector<LevelCost> costs(plan.pes);
        for (PeId pe = 0; pe < plan.pes; ++pe) {
            LevelCost &c = costs[pe];
            const PeLevelWork &work = plan.work[pe][level];
            for (std::uint32_t t : work.tasks) {
                c.add("compute", static_cast<double>(plan.taskCycles[t]));
                c.add("fold", loadCycles(model, inWords[t]));
                c.add("stage",
                      storeLineCycles(model, outWords[t] + 1));
            }
            for (std::uint32_t ei : work.push) {
                const LoweredEdge &le = plan.loweredEdges[ei];
                const double reread = loadCycles(model, le.words);
                switch (le.mech) {
                  case Mechanism::Store:
                  case Mechanism::Put:
                    c.add(mechanismName(le.mech),
                          reread + model.beta("remoteWriteLines") *
                                       lines(le.words));
                    break;
                  case Mechanism::Am:
                    c.add("am",
                          reread +
                              model.beta("fetchIncRoundTrips") +
                              2 * model.beta("remoteWriteLines") +
                              static_cast<double>(
                                  splitc_defaults.amDepositOverheadCycles));
                    break;
                  case Mechanism::Message:
                    c.add("message", reread + model.beta("msgSends"));
                    break;
                  default:
                    break;
                }
            }
            for (std::uint32_t ei : work.pull) {
                const LoweredEdge &le = plan.loweredEdges[ei];
                const double bytes = static_cast<double>(le.words) * 8;
                if (le.mech == Mechanism::Blt)
                    c.add("blt", model.bltRead.eval(bytes));
                else
                    c.add("get", model.bulkGetPrefetch.eval(bytes));
            }
            c.add("am",
                  static_cast<double>(work.expectAms) *
                      static_cast<double>(
                          splitc_defaults.amDispatchOverheadCycles));
            // A receiver drains its AMs only after its own exchange,
            // so deposits past the primary queue can take the DRAM
            // overflow ring, one interrupt each: flagged, not priced.
            if (work.expectAms > splitc_defaults.amQueueSlots) {
                pred.flags.push_back(
                    "amOverflows possible on pe " + std::to_string(pe) +
                    " at level " + std::to_string(level) + " (" +
                    std::to_string(work.expectAms) +
                    " am deposits, " +
                    std::to_string(splitc_defaults.amQueueSlots) +
                    "-slot AM queue): limit path, linear composition "
                    "unreliable");
            }
            c.add("message", static_cast<double>(work.expectMessages) *
                                 model.beta("msgInterrupts"));
            // Two barriers bound every superstep (phase A -> exchange
            // -> next level), priced by the fitted P-scaling.
            c.add("barrier",
                  2 * model.barrierScaling.eval(
                          static_cast<double>(plan.pes)));

            const double total = c.total();
            if (total > level_max || argmax == nullptr) {
                level_max = total;
                argmax = &c;
            }
        }
        pred.cycles += level_max;
        if (argmax != nullptr) {
            for (const auto &[bucket, cycles] : argmax->buckets)
                totals[bucket] += cycles;
        }
    }

    pred.breakdown.assign(totals.begin(), totals.end());
    std::sort(pred.breakdown.begin(), pred.breakdown.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    return pred;
}

} // namespace t3dsim::taskgraph
