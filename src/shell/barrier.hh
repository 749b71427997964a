/**
 * @file
 * Hardware global-OR "fuzzy" barrier network (§7.5).
 *
 * The T3D provides a wired-OR barrier: a start-barrier instruction
 * notifies other processors that the synchronization point has been
 * reached; the end-barrier polls until every processor has started
 * and resets the global-OR bit. Code may be placed between start and
 * end (the "fuzzy" part). The paper does not report the raw latency;
 * we assume a small constant (see DESIGN.md).
 *
 * This class is the machine-wide timing state; coroutine suspension
 * is handled by the SPMD executor.
 *
 * Host-performance notes: the aggregation is a radix-64 tree with
 * generation-stamped lazy reset, mirroring the physical wired-OR
 * fan-in. Each arrival updates one 64-PE leaf group (a presence
 * bitmask for the double-arrival check) and O(log64 P) tree nodes
 * carrying (count, max arrival); a node whose generation stamp is
 * stale is reinitialized on first touch, which makes
 * resetGeneration() O(1) — bump the generation — instead of the old
 * O(P) presence-vector fill. At 64K PEs a full barrier episode costs
 * ~3 node updates per arrival and a constant-time reset, and the
 * whole network is ~32 KB regardless of activity. Exit times are
 * bit-identical to the flat implementation: the root's max over
 * per-arrival clamped timestamps equals the flat running max (pinned
 * by tests/shell/barrier_test.cc's reference-model equivalence).
 */

#ifndef T3DSIM_SHELL_BARRIER_HH
#define T3DSIM_SHELL_BARRIER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace t3dsim::shell
{

/** Machine-wide barrier timing state, one generation at a time. */
class BarrierNetwork
{
  public:
    /**
     * @param pes Number of participating processors.
     * @param latency_cycles Propagation latency of the wired OR.
     */
    BarrierNetwork(std::uint32_t pes, Cycles latency_cycles);

    /**
     * Record PE @p pe reaching the barrier (start-barrier) at time
     * @p when. Each PE may arrive once per generation.
     *
     * @return The barrier exit time if this arrival completes the
     *         generation; nullopt otherwise.
     */
    std::optional<Cycles> arrive(PeId pe, Cycles when);

    /** True once every PE has arrived in this generation. */
    bool complete() const { return arrivedCount() == _pes; }

    /** Exit time of the completed generation. */
    Cycles exitTime() const;

    /** Begin the next generation (end-barrier reset). O(1). */
    void resetGeneration();

    /** Exit time of the most recently completed generation. */
    Cycles lastExitTime() const { return _lastExit; }

    std::uint32_t generation() const { return _generation; }

    /** Arrivals so far in the current generation. */
    std::uint32_t
    arrivedCount() const
    {
        const TreeNode &r = root();
        return r.gen == _generation ? r.count : 0;
    }

    std::uint32_t numPes() const { return _pes; }

    /** Host bytes resident for the aggregation tree. */
    std::size_t residentBytes() const;

  private:
    /** Fan-in per tree level (and PEs per leaf group). */
    static constexpr unsigned radixLog2 = 6;
    static constexpr std::uint32_t radix = 1u << radixLog2;

    /** Stamp no generation counter starts at (lazy-reset marker). */
    static constexpr std::uint32_t staleGen = ~std::uint32_t{0};

    /**
     * One aggregation node: arrivals and max clamped arrival time in
     * its subtree, valid only while gen matches the current
     * generation (stale nodes are zeroed on first touch). The
     * 32-bit stamp would alias only after 2^32 - 1 generations.
     */
    struct TreeNode
    {
        std::uint32_t gen = staleGen;
        std::uint32_t count = 0;
        Cycles maxArrival = 0;
    };

    /** Presence bitmask of one group of 64 PEs (double-arrival check). */
    struct LeafGroup
    {
        std::uint32_t gen = staleGen;
        std::uint64_t present = 0;
    };

    const TreeNode &root() const { return _levels.back()[0]; }

    std::uint32_t _pes;
    Cycles _latency;

    std::vector<LeafGroup> _leaves;

    /** _levels[0] aggregates leaf groups; back() is the root. */
    std::vector<std::vector<TreeNode>> _levels;

    std::uint32_t _generation = 0;
    Cycles _lastExit = 0;
};

} // namespace t3dsim::shell

#endif // T3DSIM_SHELL_BARRIER_HH
