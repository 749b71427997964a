/**
 * @file
 * The per-layer probe table: host cost of one operation of each
 * simulated layer, measured by calling the layer's public functions
 * from outside (core hit, write-buffer store, DRAM miss, uncached
 * remote read and write, pipelined get, BLT bulk read, barrier and
 * scheduler resume).
 */

#ifndef PERFBENCH_LAYER_PROBES_HH
#define PERFBENCH_LAYER_PROBES_HH

#include <map>
#include <string>

#include "spans.hh"

namespace perfbench
{

/** Probe name -> host cost (ns per operation, or per KiB moved). */
std::map<std::string, double> runLayerProbes(Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_LAYER_PROBES_HH
