/**
 * @file
 * The task-graph frontend's data model (docs/TASKGRAPH.md): an
 * explicit DAG of computation tasks and communication edges, parsed
 * from the line-protocol / file JSON schema, validated, and
 * topologically levelled so the lowering layer (lower.hh) can map it
 * onto `t3d::Machine` primitives.
 *
 * The shape follows the task-based-runtime frontends named in
 * ROADMAP item 2: comp tasks carry cycle/flop weights, comm edges
 * carry byte sizes and (src, dst) task endpoints, and placement is
 * either explicit per task or left to the deterministic greedy
 * balancer in lower.cc.
 */

#ifndef T3DSIM_TASKGRAPH_GRAPH_HH
#define T3DSIM_TASKGRAPH_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace t3dsim::model
{
class Json;
}

namespace t3dsim::taskgraph
{

/**
 * How one edge's payload moves between PEs. `Auto` defers the choice
 * to the lowering layer's size thresholds (docs/TASKGRAPH.md
 * "Lowering rules"); the rest force a primitive, subject to
 * validation (payload caps for Am/Message, the AM queue capacity).
 */
enum class Mechanism : std::uint8_t
{
    Auto,    ///< pick by payload size at lowering time
    Local,   ///< same-PE edge (or zero bytes): no transfer
    Store,   ///< non-blocking signaling stores, word at a time
    Put,     ///< non-blocking puts + sync
    Get,     ///< consumer-side bulk get (prefetch pipeline)
    Blt,     ///< consumer-side bulk read via the BLT engine
    Am,      ///< active-message deposit carrying the payload
    Message, ///< hardware message carrying the payload
};

const char *mechanismName(Mechanism m);

/** One computation task. */
struct Task
{
    std::string id;            ///< unique within the graph
    std::uint64_t cycles = 0;  ///< fixed compute cycles
    std::uint64_t flops = 0;   ///< floating-point ops (priced at
                               ///< LowerOptions::flopCycles each)
    std::int64_t pe = -1;      ///< explicit placement; negative = auto

    /** @name Derived by TaskGraph::validate */
    /// @{
    std::uint32_t level = 0;   ///< longest-path level from the roots
    /// @}
};

/** One communication edge (payload from task src to task dst). */
struct Edge
{
    std::uint32_t src = 0;     ///< producer task index
    std::uint32_t dst = 0;     ///< consumer task index
    std::uint64_t bytes = 0;   ///< payload size; 0 = pure dependency
    Mechanism mech = Mechanism::Auto;
};

/**
 * A parsed task graph. Lifecycle: parse (or build programmatically)
 * -> validate(pes) -> lower (lower.hh) -> run/predict.
 */
struct TaskGraph
{
    std::string name;
    std::vector<Task> tasks;
    std::vector<Edge> edges;

    /**
     * Parse the docs/TASKGRAPH.md schema out of @p doc. On failure
     * returns false with a typed message in @p err ("task 3: missing
     * id", "edge 0: unknown src task 'x'", ...). Endpoint names are
     * resolved to dense task indices here; structural checks beyond
     * name resolution live in validate().
     */
    static bool parse(const model::Json &doc, TaskGraph &out,
                      std::string &err);

    /** parse() applied to JSON text (adds "bad JSON: ..." errors). */
    static bool parseText(const std::string &text, TaskGraph &out,
                          std::string &err);

    /**
     * Structural validation against a @p pes -PE machine: non-empty
     * task list, endpoint ranges, explicit placements in range,
     * payload caps for forced Am/Message edges, and acyclicity.
     * Fills every task's longest-path level (the topological
     * schedule lower.cc executes). False + @p err on the first
     * violation.
     */
    bool validate(std::uint32_t pes, std::string &err);

    /**
     * FNV-1a over the canonical serialization (name, tasks in order,
     * edges in order). Two graphs hash equal iff they describe the
     * same DAG with the same weights, placements and mechanisms —
     * the graph half of the service's cache key.
     */
    std::uint64_t contentHash() const;
};

} // namespace t3dsim::taskgraph

#endif // T3DSIM_TASKGRAPH_GRAPH_HH
