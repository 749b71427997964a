/**
 * @file
 * Lowering: from a validated TaskGraph to an executable Plan — PE
 * placement, per-edge mechanism choice and memory layout, and the
 * level-synchronized schedule the runtime (run.cc) and the analytic
 * predictor (predict.cc) both consume.
 *
 * Each topological level is a superstep (compute phase, barrier,
 * exchange phase, all_store_sync). Any number of PEs may send into
 * one receiver in a level; under that contention the one scheduler's
 * order defines the answer, so a result is a function of (graph,
 * machine, mode) alone.
 */

#ifndef T3DSIM_TASKGRAPH_LOWER_HH
#define T3DSIM_TASKGRAPH_LOWER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "taskgraph/graph.hh"

namespace t3dsim::taskgraph
{

/** The most cycles one task, or all tasks of a graph together, may
 *  cost: far below 2^64, so neither the simulated clock nor the
 *  predictor's sums can wrap. */
constexpr std::uint64_t kMaxGraphCycles = std::uint64_t{1} << 62;

/** The most (PE, level) cells a plan's dense work table may hold,
 *  PEs x max(levels, 1): at 80 bytes a cell, 2.7 GB at most. A
 *  300-task chain at 65,536 PEs fits; a 3,000-task one is refused
 *  before anything is allocated per PE. */
constexpr std::uint64_t kMaxPeLevels = std::uint64_t{1} << 25;

/** Knobs for placement and mechanism selection. */
struct LowerOptions
{
    std::uint32_t pes = 8;

    /** Auto-mechanism size thresholds (docs/TASKGRAPH.md). The BLT
     *  crossover default is the fitted ~9.5 KB break-even from the
     *  analytical model (docs/MODEL.md "BLT crossover"), not the
     *  shell's configured pipeline caps. */
    std::uint64_t storeMaxBytes = 256;
    std::uint64_t putMaxBytes = 2048;
    std::uint64_t bltCrossoverBytes = 9728;

    /** Cycles charged per task flop. */
    std::uint64_t flopCycles = 1;
};

/** One edge after mechanism choice and layout. */
struct LoweredEdge
{
    std::uint32_t edge = 0;  ///< index into TaskGraph::edges
    Mechanism mech = Mechanism::Local;
    PeId srcPe = 0;
    PeId dstPe = 0;
    std::uint32_t level = 0;     ///< producer's level (delivery step)
    std::uint32_t words = 0;     ///< ceil(bytes / 8)
    Addr stagingAddr = 0;        ///< producer-side payload, on srcPe
    Addr bufAddr = 0;            ///< consumer-side payload, on dstPe
};

/** One PE's slice of one superstep. All vectors are in
 *  deterministic (task/edge index) order. */
struct PeLevelWork
{
    std::vector<std::uint32_t> tasks;  ///< my task indices this level
    std::vector<std::uint32_t> push;   ///< lowered-edge idx, src == me
                                       ///< (Store/Put/Am/Message)
    std::vector<std::uint32_t> pull;   ///< lowered-edge idx, dst == me
                                       ///< (Get/Blt)
    std::uint32_t expectMessages = 0;  ///< message edges into me
    std::uint32_t expectAms = 0;       ///< am edges into me
};

/** The executable plan for one (graph, machine-size) pair. */
struct Plan
{
    std::uint32_t pes = 0;
    std::uint32_t levels = 0;
    LowerOptions options;

    std::vector<LoweredEdge> loweredEdges;  ///< parallel to edges
    std::vector<PeId> placement;            ///< task index -> PE

    /** [pe][level] work lists. */
    std::vector<std::vector<PeLevelWork>> work;

    /** Per task: where its folded result word lands (on its PE). */
    std::vector<Addr> taskResultAddr;

    /** Per task: its compute cost, cycles + flops x flopCycles. */
    std::vector<std::uint64_t> taskCycles;

    /**
     * Build the plan: greedy deterministic placement of unpinned
     * tasks (least accumulated compute weight, lowest PE id wins
     * ties), mechanism choice by size for Auto edges, and memory
     * layout. A task cost, or a sum of all of them, past
     * kMaxGraphCycles is an error, and so are PEs x levels past
     * kMaxPeLevels and a (receiver PE, level) with more Am edges
     * than a default SplitcConfig's primary AM queue plus overflow
     * ring hold. The graph must already have passed
     * validate(options.pes).
     */
    static bool build(const TaskGraph &graph, const LowerOptions &options,
                      Plan &out, std::string &err);
};

} // namespace t3dsim::taskgraph

#endif // T3DSIM_TASKGRAPH_LOWER_HH
