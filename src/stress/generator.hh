/**
 * @file
 * Seeded Split-C traffic generator for the differential stress
 * harness (t3d-fuzz; see docs/STRESS.md).
 *
 * A Plan is a deterministic function of a StressConfig: for every
 * (round, PE) it holds a list of Ops drawn from the full runtime
 * vocabulary — blocking remote reads/writes, split-phase get/put,
 * signaling stores, prefetch pipelining, BLT transfers, fetch&inc,
 * atomic swap, Active Messages, hardware messages, and local
 * compute. The differential checker (stress/differential.hh) runs
 * the same Plan repeatedly, counters on and off, and cross-checks
 * finish times, memory checksums and per-PE counters for exact
 * equality.
 *
 * The generated programs are race-free by construction:
 *
 *  - writes land in per-(writer, round-parity) stripes, so no two
 *    PEs ever write the same word in a round;
 *  - reads target the previous round's bank, which no one writes in
 *    the current round (rounds are barrier-separated);
 *  - signaling stores, messages and AM deposits are matched by
 *    plan-derived waits (storeSync byte counts, receive counts,
 *    AM drain counts) before the round barrier;
 *  - AM deposits per receiver per round are capped below the default
 *    primary queue size, so the plain fuzz corpus never enters the
 *    overflow ring; flood seeds (StressConfig::amFloodDeposits with a
 *    shrunken amQueueSlots override) deliberately overrun it, which
 *    is still deterministic because spill routing is a pure function
 *    of the receiver's flow account at the ticket claim.
 *
 * Race-free is not contention-free: any number of PEs may deposit
 * AMs, send messages, bump fetch&inc registers or swap one cell on
 * the same receiver in a round. The one scheduler's order defines
 * the answer under that contention, so every returned value and
 * arrival order is folded into the checksum in order.
 */

#ifndef T3DSIM_STRESS_GENERATOR_HH
#define T3DSIM_STRESS_GENERATOR_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "machine/machine.hh"
#include "sim/types.hh"
#include "splitc/config.hh"

namespace t3dsim::stress
{

/** Shape of one generated program. */
struct StressConfig
{
    std::uint64_t seed = 1;
    std::uint32_t pes = 8;      ///< 2..8192 (t3d-fuzz --pes)
    std::uint32_t rounds = 4;   ///< >= 1
    std::uint32_t opsPerRound = 12; ///< per PE; 1..kStripeWords

    /**
     * Per-round AM flood: one seeded (sender, receiver) pair per
     * round issues this many additional back-to-back deposits in one
     * run-to-suspension stretch, deliberately overrunning the
     * primary queue so the differential matrix exercises the
     * deterministic overflow-ring reroute (0 = off). Pair with a
     * shrunken amQueueSlots override; the receiver still drains
     * everything before the round barrier, so the program stays
     * race-free and matched-wait.
     */
    std::uint32_t amFloodDeposits = 0;

    /** SplitcConfig::amQueueSlots override (0 = library default). */
    std::uint32_t amQueueSlots = 0;

    /** SplitcConfig::amOverflowSlots override (0 = default). */
    std::uint32_t amOverflowSlots = 0;
};

/** The traffic vocabulary (docs/STRESS.md "Traffic grammar"). */
enum class OpKind : std::uint8_t
{
    RemoteRead,  ///< readU64 of a previous-bank word
    RemoteWrite, ///< blocking writeU64 into own stripe
    Put,         ///< split-phase putU64; completes at sync()
    Get,         ///< split-phase getU64 into a scratch slot
    SignalStore, ///< storeU64; matched by the receiver's storeSync
    Prefetch,    ///< bulkReadPrefetch of a previous-bank range
    BltGet,      ///< forced-BLT bulk read of the target's const region
    BltPut,      ///< forced-BLT bulk write into own big stripe
    FetchInc,    ///< remote fetch&inc on user register 1
    Swap,        ///< atomic swap on a shared per-target cell
    AmDeposit,   ///< Active Message; matched by the receiver's drain
    SendMsg,     ///< hardware message; matched by a receive loop
    Compute,     ///< local compute cycles
};

const char *opKindName(OpKind kind);

/** One generated operation. */
struct Op
{
    OpKind kind;
    PeId target = 0;         ///< remote PE (never self)
    std::uint32_t word = 0;  ///< read index
    std::uint32_t len = 0;   ///< prefetch length in words
    std::uint32_t slot = 0;  ///< write slot (== op index; writer-unique)
    std::uint64_t value = 0; ///< payload / compute cycles
};

/** Per-round schedule plus the plan-derived wait expectations. */
struct RoundPlan
{
    std::vector<std::vector<Op>> ops;        ///< [pe] -> op list
    std::vector<std::uint64_t> storeBytesIn; ///< [pe] signaling bytes
    std::vector<std::uint32_t> msgsIn;       ///< [pe] messages
    std::vector<std::uint32_t> amsIn;        ///< [pe] AM deposits
};

/** @name Memory layout (local addresses, identical on every PE) */
/// @{
/** Data region: two banks of per-writer stripes. */
constexpr Addr kDataBase = 0x40000;
constexpr std::uint32_t kStripeWords = 32;

/** BLT landing region: two banks of per-writer 4 KiB stripes. */
constexpr Addr kBigBase = 0x80000;
constexpr std::size_t kBigStripeBytes = 4 * KiB;

/** Read-only source data, filled per-PE before the first barrier. */
constexpr Addr kConstBase = 0x100000;
constexpr std::uint32_t kConstWords = 512;

/** Per-op scratch slots for get / prefetch destinations. */
constexpr Addr kScratchBase = 0x140000;
constexpr std::size_t kScratchSlotBytes = 256;

/** BLT read destination (one transfer in flight per PE round). */
constexpr Addr kBltScratch = 0x148000;

/** Result accumulators (read/fetchInc/swap/msg/AM), 5 cells. */
constexpr Addr kAccumBase = 0x150000;
constexpr std::uint32_t kAccumCells = 5;

/** The atomic-swap cell every swapper of this PE chains through. */
constexpr Addr kSwapBase = 0x151000;
/// @}

/**
 * Resolved region bases for one plan. Region sizes grow with the PE
 * count (data banks and BLT stripes are per-PE), so at
 * large P the fixed bases above would overlap. Each base resolves to
 * max(fixed constant, 4 KiB-aligned end of the previous region):
 * at the historical config ceiling (pes <= 32) every base equals its
 * constant, so existing small-P seeds keep their exact layout and
 * timing, while large-P configs (t3d-fuzz --pes, up to 8192) spread
 * out without collisions. The final region must stay inside the
 * 128 MiB local segment; Plan::build's pes clamp guarantees it.
 */
struct Layout
{
    Addr dataBase = kDataBase;
    Addr bigBase = kBigBase;
    Addr constBase = kConstBase;
    Addr scratchBase = kScratchBase;
    Addr bltScratch = kBltScratch;
    Addr accumBase = kAccumBase;
    Addr swapBase = kSwapBase;

    /** Resolve the layout for a (clamped) config. */
    static Layout of(const StressConfig &cfg);
};

/** A full deterministic program: config + per-round schedules. */
struct Plan
{
    StressConfig cfg;
    Layout layout;
    std::vector<RoundPlan> rounds;

    /** Build the plan for @p cfg (pure function of the seed). */
    static Plan build(const StressConfig &cfg);

    /** Human-readable op listing (the --repro output). */
    void print(std::ostream &os) const;
};

/**
 * Execute @p plan on @p machine with @p splitc_cfg; returns per-PE
 * finish times.
 */
std::vector<Cycles> runPlan(machine::Machine &machine, const Plan &plan,
                            const splitc::SplitcConfig &splitc_cfg);

/**
 * FNV-1a over every generator-owned region of every PE, in PE
 * order: data banks, BLT landing stripes, scratch, accumulators and
 * the swap cell. Absent storage chunks fold as runs of zeros without
 * being materialized.
 */
std::uint64_t memoryChecksum(machine::Machine &machine, const Plan &plan);

} // namespace t3dsim::stress

#endif // T3DSIM_STRESS_GENERATOR_HH
