/**
 * @file
 * Tunables of the Split-C runtime: code-generation overheads the
 * paper attributes to the language implementation on top of the raw
 * hardware primitives, plus the compiler's mechanism-selection
 * crossover points.
 */

#ifndef T3DSIM_SPLITC_CONFIG_HH
#define T3DSIM_SPLITC_CONFIG_HH

#include <cstdint>

#include "sim/types.hh"

namespace t3dsim::splitc
{

/** Annex register management strategy (§3.4). */
enum class AnnexPolicy
{
    /**
     * Use one annex register for all remote accesses, reloading it
     * whenever the target PE changes (the strategy the paper's
     * implementation settled on).
     */
    SingleReload,

    /**
     * Hash the PE number onto a pool of annex registers and keep a
     * runtime table of their contents. Hazard-free by construction
     * (a PE always maps to the same register) but each access pays a
     * table lookup, so there is "no clear performance advantage"
     * (§3.4).
     */
    HashedTable,
};

/** Runtime overhead constants and policy knobs. */
struct SplitcConfig
{
    AnnexPolicy annexPolicy = AnnexPolicy::SingleReload;

    /**
     * Global-pointer dereference overhead: extract the PE number,
     * insert the annex index into the address, test for local
     * (§3.3/§4.4; the gap between the 91-cycle raw uncached read and
     * the ~128-cycle Split-C read beyond the 23-cycle annex update).
     */
    Cycles ptrOverheadCycles = 6;

    /** Table lookup per access under AnnexPolicy::HashedTable. */
    Cycles annexTableLookupCycles = 10;

    /** get: target-address table update/lookup, 10 cycles (§5.4). */
    Cycles getTableCycles = 10;

    /** get: final store into the target local address (§5.4). */
    Cycles getLocalStoreCycles = 3;

    /** put: "a few additional checks" beyond the store (§5.4). */
    Cycles putCheckCycles = 10;

    /**
     * Signaling store: extra cost of maintaining the receiver's
     * arrived-bytes counter (pipelined second write; §7.1/§7.4).
     */
    Cycles storeSignalExtraCycles = 4;

    /** Fuzzy-barrier instruction costs around the hardware OR. */
    Cycles startBarrierCycles = 5;
    Cycles endBarrierCycles = 5;

    /** store_sync: local counter poll on wakeup. */
    Cycles storeSyncPollCycles = 25;

    /** bulk_read/bulk_write: switch to the BLT above this (§6.3). */
    std::size_t bulkBltCrossoverBytes = 16 * KiB;

    /**
     * bulk_get: the BLT's 180 us startup buys overlap only above
     * ~7,900 bytes (§6.3).
     */
    std::size_t bulkGetBltCrossoverBytes = 7900;

    /** AM deposit: sender-side packing/bookkeeping overhead (§7.4). */
    Cycles amDepositOverheadCycles = 100;

    /** AM dispatch: receiver-side handler dispatch overhead (§7.4). */
    Cycles amDispatchOverheadCycles = 170;

    /**
     * Slots in the per-node shared-memory AM queue. A deposit whose
     * ticket has this many undispatched predecessors (per the
     * receiver's flow account, sampled at the serialized ticket
     * claim) cannot use the primary queue: system software reroutes
     * it into a DRAM overflow ring that the receiver recovers from
     * with one modeled interrupt per spilled message — a sustained
     * flood becomes an interrupt storm that slows the receiver
     * instead of aborting the run. The counter-based rule makes
     * placement a pure function of simulated state.
     */
    std::uint32_t amQueueSlots = 256;

    /**
     * Slots in the per-node DRAM overflow ring, occupied in ticket
     * order by spilled deposits. Together with the primary queue
     * this bounds undispatched deposits per receiver; exhausting
     * both is diagnosed as a typed error (a receiver that never
     * drains is a deadlocked program, not extreme-but-legal
     * traffic). The combined rings must fit below Node::allocBase.
     */
    std::uint32_t amOverflowSlots = 1024;

    /**
     * Receiver-side cost to recover one spilled deposit from the
     * overflow ring: an OS interrupt, same 25 us the message-queue
     * path charges (§7.3; assumption documented in DESIGN.md).
     */
    Cycles amOverflowDrainCycles = usToCycles(25.0);

    /**
     * Unread; every run uses the one sequential scheduler. Kept only
     * because perfbench/src still assigns it -1. Remove it together
     * with those assignments.
     */
    int hostThreads = 0;
};

} // namespace t3dsim::splitc

#endif // T3DSIM_SPLITC_CONFIG_HH
