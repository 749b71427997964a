/**
 * @file
 * Micro-sweep runners: drive the simulated machine through one
 * isolated primitive at a time and record (size, elapsed cycles,
 * counter deltas) points the fitter can price (docs/MODEL.md §2).
 *
 * Each sweep uses the same measurement idiom as the corresponding
 * bench_fig* bench (raw annexed loads for the hardware mechanisms,
 * splitc::runSpmd for the language-level primitives) but snapshots
 * the measuring node's PerfCounters around exactly the timed
 * region, so warm-up traffic never pollutes the deltas. Machines
 * are tiny (2-64 PEs) and every sweep completes in host
 * milliseconds.
 */

#ifndef T3DSIM_MODEL_MEASURE_HH
#define T3DSIM_MODEL_MEASURE_HH

#include <vector>

#include "model/sweep.hh"

namespace t3dsim::model
{

/**
 * Run every micro-sweep the fitter knows how to price (the fit
 * groups of primitives.cc plus the headline curves). Every sweep
 * machine is configured to count, and the environment cannot switch
 * counting off, so the deltas are always real.
 */
std::vector<Sweep> measureAll();

} // namespace t3dsim::model

#endif // T3DSIM_MODEL_MEASURE_HH
