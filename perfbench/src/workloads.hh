/**
 * @file
 * The benchmark's workloads. A pass is one repetition of a workload;
 * it reports its host phases, one record per job (a simulated run or
 * a served request), and the per-layer figures the benchmark can
 * split from outside the library's calls.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes/counters.hh"
#include "spans.hh"

namespace perfbench
{

/** One job of a pass: a simulated run or a served request. */
struct JobRecord
{
    std::string key;  ///< stable across passes and seeds ("0.2/Get", "j17")
    std::string kind; ///< "run", "simulate" or "predict"
    double ms = 0;    ///< host latency
    std::uint64_t cycles = 0; ///< simulated (or predicted) cycles
    std::uint32_t pes = 0;
    std::string checksum;
    std::string group; ///< jobs of one group must agree on checksum
    bool ok = true;    ///< the job's own verdict (sorted, converged, ...)
    bool cacheHit = false;
};

struct PassRecord
{
    double wallS = 0;  ///< host seconds of the pass's jobs
    double setupS = 0; ///< the pass's own set-up estimate
    std::vector<JobRecord> jobs;

    /** Per-layer figures measured in this pass (name -> value). */
    std::map<std::string, double> layers;

    /** Machine-wide counter totals summed over the pass's runs. */
    t3dsim::probes::PerfCounters counters{};
    bool countersValid = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Run one pass. @p observe turns the simulated machine's counters
     * on through MachineConfig::observe; spans go to @p tracer under
     * a top-level "pass.<name>" span.
     */
    virtual PassRecord pass(Tracer &tracer, bool observe) = 0;

    /**
     * Checks that need more than the pass's own records, made once
     * per run outside any timed region; one record per checked item.
     */
    virtual std::vector<JobRecord> verify() { return {}; }

    /**
     * Traced only: replay part of the last pass through the layers'
     * public functions, one span per call, adding per-layer figures
     * to @p record.
     */
    virtual void replay(Tracer &, PassRecord &) {}
};

/** The workload called @p name, inputs drawn from @p seed; null if
 *  there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
