/**
 * @file
 * BSP sample + radix sort (after Gerbessiotis & Siniolakis, "BSP
 * Sorting: An Experimental Study"): the bulk-synchronous workload the
 * paper's application section never reaches. EM3D's traffic is many
 * small irregular transfers; a BSP sort superstep is the opposite
 * regime — one all-to-all exchange of large contiguous key blocks
 * between barriers — which is exactly what stresses the BLT-vs-
 * prefetch crossover (§6.3) and barrier fan-in.
 *
 * Algorithm (one BSP superstep structure):
 *
 *   1. every PE owns keysPerPe 64-bit keys; P-1 splitters are chosen
 *      from a regular sample (host-side plan, like EM3D's graph);
 *   2. classify + stage: each key is routed to the bucket PE whose
 *      splitter range contains it, staged contiguously by destination
 *      (timed local pass);
 *   3. all-to-all exchange of the staged blocks — the ladder rung
 *      picks the mechanism (apps::Variant);
 *   4. local LSD radix sort of the received block (timed local
 *      passes moving real bytes).
 *
 * Bucket ranges are ordered by PE, so the concatenation of the
 * per-PE sorted blocks is the globally sorted sequence; run()
 * validates it against std::sort of the gathered input keys.
 *
 * Every variant fills the same receive layout (blocks grouped by
 * source PE), so all five rungs produce bit-identical output and
 * checksums — only the elapsed cycles differ.
 */

#ifndef T3DSIM_APPS_BSORT_BSORT_HH
#define T3DSIM_APPS_BSORT_BSORT_HH

#include <cstdint>
#include <vector>

#include "apps/app.hh"
#include "apps/variant.hh"
#include "machine/machine.hh"
#include "probes/counters.hh"
#include "splitc/config.hh"
#include "sim/types.hh"

namespace t3dsim::apps::bsort
{

/** Workload parameters. */
struct Config
{
    /** Keys generated (and, in balance, received) per PE. */
    std::uint32_t keysPerPe = 512;

    /** Sample keys per PE used to pick the P-1 splitters. */
    std::uint32_t oversample = 8;

    std::uint64_t seed = 42;

    /** @name Local-phase instruction overheads (cycles) */
    /// @{
    /** Per-key splitter binary search in the classify pass. */
    Cycles classifyCycles = 12;

    /** Radix digit width in bits (64 must divide evenly). */
    std::uint32_t radixBits = 8;

    /** Per-key bookkeeping in a radix counting pass. */
    Cycles radixCountCycles = 2;

    /** Per-key bookkeeping in a radix scatter pass. */
    Cycles radixScatterCycles = 4;
    /// @}
};

/** Deterministic key stream: key @p i of PE @p pe under @p seed. */
std::uint64_t keyOf(std::uint64_t seed, PeId pe, std::uint32_t i);

/**
 * Pick splitters from a regular sample of every PE's key stream
 * (the host-side half of the sample-sort plan; exposed so examples
 * can reuse the app's bucketing).
 * @return pes-1 ascending splitter keys.
 */
std::vector<std::uint64_t> pickSplitters(const Config &config,
                                         std::uint32_t pes);

/** Bucket (destination PE) of @p key under @p splitters. */
std::uint32_t bucketOf(std::uint64_t key,
                       const std::vector<std::uint64_t> &splitters);

/**
 * The host-side exchange plan: splitters, per-PE outgoing blocks
 * (stage layout) and incoming blocks (receive layout), plus the
 * simulated memory map. Built untimed, like em3d::Graph.
 */
class Plan
{
  public:
    static Plan build(machine::Machine &machine, const Config &config);

    /** One contiguous run of staged keys bound for a single PE. */
    struct OutBlock
    {
        PeId dst;

        /** First stage slot of the run on the producer. */
        std::uint32_t stageFirst;

        /** First receive slot of the run on the consumer. */
        std::uint32_t recvFirst;

        std::uint32_t count;
    };

    /** Consumer view of one producer's incoming run. */
    struct InBlock
    {
        PeId src;

        /** First stage slot of the run on the producer. */
        std::uint32_t srcStageFirst;

        /** First receive slot here. */
        std::uint32_t recvFirst;

        std::uint32_t count;
    };

    struct PerPe
    {
        /** Stage slot of local key i (classify-pass routing). */
        std::vector<std::uint32_t> stageSlotOfKey;

        /** Outgoing runs, ascending destination (self included). */
        std::vector<OutBlock> outBlocks;

        /** Incoming runs, ascending source (self included). */
        std::vector<InBlock> inBlocks;

        /** Keys this PE receives in total. */
        std::uint32_t recvCount = 0;
    };

    Config config;
    std::uint32_t pes = 0;

    std::vector<std::uint64_t> splitters;
    std::vector<PerPe> perPe;

    /** Largest recvCount over all PEs (sizes the symmetric recv and
     *  radix scratch arrays). */
    std::uint32_t maxRecv = 0;

    /** @name Symmetric local offsets of the simulated arrays */
    /// @{
    Addr keysBase = 0;  ///< original keys (written at build)
    Addr stageBase = 0; ///< outgoing keys grouped by destination
    Addr recvBase = 0;  ///< incoming keys grouped by source
    Addr scratchBase = 0; ///< radix ping-pong buffer
    /// @}
};

/** Outcome of one sort run. */
struct Result
{
    Variant variant;
    Cycles elapsed = 0;

    /** Elapsed time per key owned by a PE. */
    double usPerKey = 0;

    std::uint64_t keysTotal = 0;

    /** FNV-1a over the gathered (globally sorted) key sequence:
     *  identical across variants and counter modes by construction. */
    std::uint64_t checksum = 0;

    /** Output matched std::sort of the gathered input keys. */
    bool sorted = false;

    /** Machine-wide counter totals (valid only when the machine ran
     *  with MachineConfig::observe.counters). */
    probes::PerfCounters counters{};
    bool countersValid = false;
};

/** Build the plan on a fresh machine of @p pes PEs and sort. */
Result run(const Config &config, Variant variant, std::uint32_t pes,
           const splitc::SplitcConfig &splitc_config = {});

/** As above, on a caller-supplied machine configuration. */
Result run(const Config &config, Variant variant,
           const machine::MachineConfig &machine_config,
           const splitc::SplitcConfig &splitc_config = {});

/**
 * bsort as an apps::App over @p config: the five Variant rungs,
 * perUnit in us per key, valid = sorted.
 */
App app(const Config &config);

} // namespace t3dsim::apps::bsort

#endif // T3DSIM_APPS_BSORT_BSORT_HH
