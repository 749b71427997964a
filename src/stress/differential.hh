/**
 * @file
 * Differential checker for the seeded stress generator (t3d-fuzz).
 *
 * One seed is checked by running the identical Plan three times:
 *
 *  - with counters on (the reference);
 *  - with counters on again (the run must be deterministic: same
 *    finish times, checksum and every per-PE counter record);
 *  - with counters off (observability must not move simulated time).
 *
 * Every run must reproduce the reference per-PE finish times and the
 * memory checksum bit-for-bit.
 */

#ifndef T3DSIM_STRESS_DIFFERENTIAL_HH
#define T3DSIM_STRESS_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "probes/counters.hh"
#include "sim/types.hh"
#include "stress/generator.hh"

namespace t3dsim::stress
{

/** Outcome of one execution of a Plan. */
struct RunResult
{
    std::vector<Cycles> finish;
    std::uint64_t checksum = 0;
    /** Per-PE counter records; empty when counters were off. */
    std::vector<probes::PerfCounters> counters;
};

/**
 * Build a fresh Machine and execute @p plan once.
 * @param counters_on request per-PE counters.
 */
RunResult runOnce(const Plan &plan, bool counters_on);

/** Differential verdict for one seed. */
struct SeedReport
{
    std::uint64_t seed = 0;
    bool pass = false;
    /** One line per divergence (empty when pass). */
    std::vector<std::string> mismatches;
    RunResult reference;
};

/** Run the differential legs for one seed. */
SeedReport runDifferential(const StressConfig &cfg);

/**
 * The --saturate demo: a deliberately overloading program — an AM
 * flood past the primary queue and a hardware-message flood past a
 * shrunken msgQueueCapacity — that must complete with modeled spill
 * costs instead of aborting (the tentpole acceptance shape). The
 * overflow and spill counts are read from the nodes' PerfCounters.
 */
struct SaturateReport
{
    bool completed = false;
    std::uint64_t amDeposits = 0;
    std::uint64_t amOverflows = 0; ///< rerouted to the overflow ring
    std::uint64_t amHandled = 0;
    std::uint64_t msgsSent = 0;
    std::uint64_t msgSpills = 0; ///< spilled past msgQueueCapacity
    std::uint64_t msgsReceived = 0;
    Cycles receiverFinish = 0;
};

SaturateReport runSaturate();

} // namespace t3dsim::stress

#endif // T3DSIM_STRESS_DIFFERENTIAL_HH
