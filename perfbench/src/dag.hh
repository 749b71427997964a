/**
 * @file
 * Seeded generator of the `serve` workload's requests: random layered
 * task-graph DAGs in the docs/TASKGRAPH.md request schema. The
 * benchmark owns its generator (SplitMix64) so that its inputs do not
 * move when the simulator's own RNG changes.
 */

#ifndef PERFBENCH_DAG_HH
#define PERFBENCH_DAG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Requests in one serve pass. */
constexpr std::size_t serveJobs = 256;

/** PEs every request runs on. */
constexpr std::uint32_t servePes = 32;

/** Shape of every generated graph. */
constexpr std::uint32_t dagLevels = 8;
constexpr std::uint32_t dagTasksPerLevel = 16;
constexpr std::uint32_t dagInEdges = 2;
constexpr std::uint64_t dagMinBytes = 64;
constexpr std::uint64_t dagMaxBytes = 16 * 1024;

/** One request of a serve pass. */
struct GenJob
{
    std::string line; ///< the request, one JSON object
    bool predict = false;

    /** Index of the earlier job this one repeats, or -1. */
    std::int64_t repeatOf = -1;
};

/**
 * The serveJobs requests drawn from @p seed: one in four is a predict
 * job, the rest simulate; every eighth job repeats an earlier simulate
 * job's graph, so the service answers it from its result cache.
 */
std::vector<GenJob> generateJobs(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_DAG_HH
