/**
 * @file
 * Exact execution of a lowered task graph on `t3d::Machine` through
 * the splitc scheduler seams: one SPMD coroutine per PE walks the
 * Plan's supersteps, charging real compute/transfer costs and
 * producing a deterministic value checksum (docs/TASKGRAPH.md
 * "Execution model").
 */

#ifndef T3DSIM_TASKGRAPH_RUN_HH
#define T3DSIM_TASKGRAPH_RUN_HH

#include <cstdint>
#include <string>

#include "taskgraph/lower.hh"

namespace t3dsim::taskgraph
{

struct RunOptions
{
    /** Unread; kept only because perfbench/src still assigns it -1.
     *  Remove it together with that assignment. */
    int hostThreads = -1;

    /** Enable the shell-event trace; when @p tracePath is non-empty
     *  the run's end-of-run flush (Machine::flushObservability)
     *  writes the Chrome JSON there, else the trace stays in
     *  process and only its event count is reported. */
    bool trace = false;
    std::string tracePath;
};

/** What one exact simulation produced. */
struct RunResult
{
    std::uint64_t makespanCycles = 0;  ///< max per-PE finish time
    std::uint64_t finishHash = 0;      ///< FNV over per-PE finish times
    std::uint64_t checksum = 0;        ///< fold of task result values
    std::uint32_t levels = 0;
    std::size_t traceEvents = 0;       ///< 0 unless options.trace
};

/**
 * Run @p plan for @p graph on a fresh MachineConfig::t3d(plan.pes)
 * machine. Deterministic: for a fixed (graph, plan), every run
 * returns bit-identical makespan, finishHash and checksum, traced or
 * not (pinned by tests/taskgraph/run_test.cc).
 */
RunResult simulate(const TaskGraph &graph, const Plan &plan,
                   const RunOptions &options = RunOptions{});

} // namespace t3dsim::taskgraph

#endif // T3DSIM_TASKGRAPH_RUN_HH
