/**
 * @file
 * EM3D (§8): propagation of electromagnetic waves through objects in
 * three dimensions, reduced (as in the paper) to leapfrog updates on
 * an irregular bipartite graph of E and H field nodes spread across
 * the machine.
 *
 * Six program versions reproduce Figure 9's optimization ladder:
 *
 *   Simple  — every edge performs a blocking (possibly remote) read.
 *   Bundle  — remote values are fetched once per step into local
 *             ghost nodes; compute reads only local memory.
 *   Unroll  — Bundle plus an unrolled/software-pipelined compute
 *             phase (cheaper per-edge instruction overhead).
 *   Get     — the ghost fill is pipelined with split-phase gets.
 *   Put     — the *owner* of each value pushes it into the
 *             consumers' ghost slots with puts.
 *   Bulk    — outgoing values are gathered into a contiguous stage
 *             buffer and moved with one bulk transfer.
 *
 * The synthetic kernel graph follows the paper: a configurable
 * number of nodes per processor, fixed degree, and a dial for the
 * fraction of edges that cross processors. A remote edge references
 * a uniformly random processor among the distinct pe +/- 1 and
 * pe +/- 2 (DESIGN.md §6); the resulting interleaving of destination
 * PEs is what makes repeated annex set-up visible and reproduces
 * Figure 9's Put-beats-Get and Bulk-beats-Put ordering (§8: Bulk
 * "avoids repeated Annex set-up operations").
 */

#ifndef T3DSIM_EM3D_EM3D_HH
#define T3DSIM_EM3D_EM3D_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "machine/machine.hh"
#include "splitc/config.hh"
#include "splitc/global_ptr.hh"
#include "sim/types.hh"

namespace t3dsim::em3d
{

/** Workload parameters (§8: 500 nodes/PE, degree 20). */
struct Config
{
    std::uint32_t nodesPerPe = 500;
    std::uint32_t degree = 20;

    /** Fraction of edges whose producer lives on another PE. */
    double remoteFraction = 0.2;

    std::uint64_t seed = 42;
    int iterations = 1;

    /** @name Per-edge compute-phase costs (cycles), calibrated so
     *  the optimized all-local versions land at the paper's 0.37 us
     *  per edge (§8). */
    /// @{
    Cycles computeSimpleCycles = 72;
    Cycles computeBundleCycles = 70;
    Cycles computeOptCycles = 53;
    /// @}
};

/** The six Figure 9 program versions. */
enum class Version
{
    Simple,
    Bundle,
    Unroll,
    Get,
    Put,
    Bulk,
};

/** Human-readable version name (as in Figure 9's legend). */
const char *versionName(Version v);

/** All versions in Figure 9 order. */
inline constexpr Version allVersions[] = {
    Version::Simple, Version::Bundle, Version::Unroll,
    Version::Get,    Version::Put,    Version::Bulk,
};

/**
 * One consumer-side dependency edge, 16 bytes. Its consuming node is
 * implied by its place in Graph::Side::edges (see firstEdge).
 */
struct Edge
{
    double weight;

    /** Producer PE of the value. */
    PeId srcPe;

    /**
     * Where the compute phase finds the value: its producer-local
     * index when srcPe is the consuming PE, else its ghost slot
     * (Side::slotIndex maps a slot back to the producer-local index).
     */
    std::uint32_t ref;
};

/** A remote value to pull into a ghost slot (Bundle/Get versions). */
struct Fetch
{
    PeId srcPe;
    std::uint32_t srcIdx;
    std::uint32_t ghostSlot;
};

/** A local value to push into a consumer's ghost slot (Put). */
struct Push
{
    std::uint32_t srcIdx;
    PeId dstPe;
    std::uint32_t ghostSlot;
};

/** The built graph: host-side structure + simulated memory layout. */
class Graph
{
  public:
    /**
     * Generate the synthetic kernel graph and allocate the value /
     * ghost / stage arrays symmetrically across @p machine.
     */
    static Graph build(machine::Machine &machine, const Config &config);

    /**
     * Consumer-side view of one producer's contribution: ghost slots
     * firstSlot .. firstSlot + count - 1 hold its values, in
     * ascending producer-local index order.
     */
    struct ProducerGroup
    {
        PeId srcPe;
        std::uint32_t firstSlot;
        std::uint32_t count;

        /** Where the producer stages these values (Bulk version):
         *  its stage entries from producerStageOffset / 8 on. */
        Addr producerStageOffset = 0;
    };

    /** One field direction's per-PE data. */
    struct Side
    {
        /** Edges consumed when updating this side's nodes, grouped
         *  by destination node: node i consumes edges firstEdge[i]
         *  up to firstEdge[i + 1]. */
        std::vector<Edge> edges;

        /** CSR offsets into edges, nodesPerPe + 1 of them. */
        std::vector<std::uint32_t> firstEdge;

        /** Producer-local index of the value in each ghost slot. */
        std::vector<std::uint32_t> slotIndex;

        /** Remote values to pull (deduplicated), in order of first
         *  reference by edges (producers interleave); the slots they
         *  fill are grouped by producer. */
        std::vector<Fetch> fetches;

        /** Consumer view, one entry per producer. */
        std::vector<ProducerGroup> groups;

        /** Producer view: values to push, in node order (the
         *  destination-PE interleaving causes annex churn). */
        std::vector<Push> pushes;

        /** Producer view (Bulk): local indices to gather, one run
         *  per consumer group in ascending consumer PE order, each
         *  run in that group's slot order. Entry k is staged at
         *  stageBase + 8k. */
        std::vector<std::uint32_t> stage;

        std::uint32_t
        ghostCount() const
        {
            return static_cast<std::uint32_t>(slotIndex.size());
        }

        /** Producer-local index of @p edge's value; @p pe is the PE
         *  this side belongs to. */
        std::uint32_t
        srcIdx(const Edge &edge, PeId pe) const
        {
            return edge.srcPe == pe ? edge.ref : slotIndex[edge.ref];
        }
    };

    struct PerPe
    {
        Side e; ///< updating E nodes (consumes H values)
        Side h; ///< updating H nodes (consumes E values)
    };

    Config config;
    std::uint32_t pes = 0;

    /** @name Symmetric local offsets of the simulated arrays */
    /// @{
    Addr eValsBase = 0;
    Addr hValsBase = 0;
    Addr eGhostBase = 0; ///< ghosts of remote H values (E update)
    Addr hGhostBase = 0; ///< ghosts of remote E values (H update)
    Addr stageBase = 0;  ///< producer-side staging for Bulk
    /// @}

    std::vector<PerPe> perPe;

    /** The symmetric arrays one side's update touches. */
    struct Arrays
    {
        Addr vals;      ///< the side's own node values
        Addr producers; ///< the values it consumes, on their owners
        Addr ghosts;    ///< its ghost slots

        /** Compute-phase local address of @p edge's value on @p pe:
         *  in the producer array for a local edge, else its ghost
         *  slot. */
        Addr
        valueAddr(const Edge &edge, PeId pe) const
        {
            return (edge.srcPe == pe ? producers : ghosts) +
                Addr{edge.ref} * 8;
        }
    };

    /** The arrays of the E side (@p e_side) or the H side. */
    Arrays
    arrays(bool e_side) const
    {
        return e_side ? Arrays{eValsBase, hValsBase, eGhostBase}
                      : Arrays{hValsBase, eValsBase, hGhostBase};
    }

    /** Directed edges per PE per iteration (both phases). */
    std::uint64_t edgesPerPe() const;

    /** Deterministic checksum of all E and H values (validation). */
    double checksum(machine::Machine &machine) const;
};

/** Outcome of one EM3D run. */
struct Result
{
    Version version;
    double usPerEdge = 0;
    Cycles elapsed = 0;
    std::uint64_t edgesPerPePerIter = 0;
    double checksum = 0;

    /** Host bytes resident for the modeled machine after the run
     *  (Machine::residentModelBytes; see DESIGN.md §11). */
    std::uint64_t modeledBytes = 0;

    /** Machine-wide counter totals (valid only when the machine ran
     *  with MachineConfig::observe.counters), as in the app suite's
     *  Results — the export hook the model layer composes from. */
    probes::PerfCounters counters{};
    bool countersValid = false;
};

/**
 * Build the graph on a fresh machine of @p pes processors and run
 * @p version for config.iterations leapfrog steps.
 *
 * @param splitc_config Runtime policy knobs (annex management etc.),
 *        for ablation studies.
 */
Result run(const Config &config, Version version, std::uint32_t pes,
           const splitc::SplitcConfig &splitc_config = {});

/** As above, on a caller-supplied machine configuration. */
Result run(const Config &config, Version version,
           const machine::MachineConfig &machine_config,
           const splitc::SplitcConfig &splitc_config = {});

/**
 * EM3D as an apps::App over @p config: the six versions in Figure 9
 * order as rungs, perUnit in us per edge.
 */
apps::App app(const Config &config);

} // namespace t3dsim::em3d

#endif // T3DSIM_EM3D_EM3D_HH
