/**
 * @file
 * Per-PE Split-C runtime handle: the language primitives of §1.1
 * compiled onto the T3D shell exactly as the paper's implementation
 * maps them (§3-§7):
 *
 *  - read / write   -> uncached remote reads; remote writes with MB +
 *                      status-bit poll (§4.4)
 *  - get / put      -> binding prefetch + target-address table;
 *                      non-blocking writes (§5.4)
 *  - store          -> pipelined one-way writes with a receiver-side
 *                      arrived-bytes account (§7.1)
 *  - bulk_*         -> mechanism selection between uncached reads,
 *                      prefetch pipelining and the BLT (§6.3)
 *  - barrier        -> write drain + hardware fuzzy barrier (§7.5)
 *  - Active Messages-> fetch&increment + stores into a remote queue
 *                      (§7.4), including the remote byte-write fix
 *                      for the §4.5 semantic mismatch
 */

#ifndef T3DSIM_SPLITC_PROC_HH
#define T3DSIM_SPLITC_PROC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "machine/machine.hh"
#include "machine/node.hh"
#include "shell/annex.hh"
#include "splitc/config.hh"
#include "splitc/executor.hh"
#include "splitc/global_ptr.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace t3dsim::splitc
{

/** Active-Message handler: runs on the owning PE. */
using AmHandler =
    std::function<void(Proc &, const std::array<std::uint64_t, 4> &)>;

/** The per-PE runtime. Created by the Scheduler; one per node. */
class Proc
{
  public:
    Proc(Scheduler &sched, machine::Machine &machine, machine::Node &node,
         const SplitcConfig &config);

    Proc(const Proc &) = delete;
    Proc &operator=(const Proc &) = delete;

    /** @name Identity */
    /// @{
    PeId pe() const { return _node.pe(); }
    std::uint32_t procs() const { return _machine.numPes(); }
    machine::Node &node() { return _node; }
    Clock &clock() { return _node.clock(); }
    Cycles now() const { return _node.clock().now(); }
    const SplitcConfig &config() const { return _config; }
    /// @}

    /** @name Local storage management (untimed) */
    /// @{
    /** Allocate on this PE; returns a global address to it. */
    GlobalAddr allocLocal(std::size_t bytes, std::size_t align = 8);

    /** Global address of a local address on this PE. */
    GlobalAddr
    globalize(Addr local) const
    {
        return GlobalAddr::make(_node.pe(), local);
    }
    /// @}

    /** @name Blocking global access (§4.4) */
    /// @{
    std::uint64_t readU64(GlobalAddr src);
    void writeU64(GlobalAddr dst, std::uint64_t value);
    double readF64(GlobalAddr src);
    void writeF64(GlobalAddr dst, double value);

    /**
     * Byte read/write through a global pointer. The write is the
     * §4.5 trap: a non-atomic remote read-modify-write. See
     * amWriteByte() for the correct (Active-Message) version.
     */
    std::uint8_t readU8(GlobalAddr src);
    void writeU8(GlobalAddr dst, std::uint8_t value);
    /// @}

    /** @name Split-phase access (§5.4) */
    /// @{
    /** x := *P — initiate a get of @p src into local @p local_dst. */
    void getU64(GlobalAddr src, Addr local_dst);

    /** *P := x — initiate a put. */
    void putU64(GlobalAddr dst, std::uint64_t value);
    void putF64(GlobalAddr dst, double value);

    /** Wait for all outstanding gets and puts (§5.1). */
    void sync();
    /// @}

    /** @name Signaling stores (§7.1) */
    /// @{
    /** P :- x — one-way store; completion observed via *_store_sync. */
    void storeU64(GlobalAddr dst, std::uint64_t value);
    void storeF64(GlobalAddr dst, double value);

    /** Barrier + completion of all stores issued before it. */
    BarrierAwaiter allStoreSync();

    /** Wait until @p bytes more store data has arrived locally. */
    StoreSyncAwaiter storeSync(std::uint64_t bytes);
    /// @}

    /** @name Bulk transfer (§6.3) */
    /// @{
    /** Mechanism-selecting Split-C bulk_read / bulk_write. */
    void bulkRead(Addr local_dst, GlobalAddr src, std::size_t bytes);
    void bulkWrite(GlobalAddr dst, Addr local_src, std::size_t bytes);

    /** Split-phase bulk; completion via sync(). */
    void bulkGet(Addr local_dst, GlobalAddr src, std::size_t bytes);
    void bulkPut(GlobalAddr dst, Addr local_src, std::size_t bytes);

    /** Mechanism-forced variants (the §6.2 micro-benchmarks). */
    void bulkReadUncached(Addr local_dst, GlobalAddr src,
                          std::size_t bytes);
    void bulkReadCached(Addr local_dst, GlobalAddr src,
                        std::size_t bytes);
    void bulkReadPrefetch(Addr local_dst, GlobalAddr src,
                          std::size_t bytes);
    void bulkReadBlt(Addr local_dst, GlobalAddr src, std::size_t bytes);
    void bulkWriteStores(GlobalAddr dst, Addr local_src,
                         std::size_t bytes);
    void bulkWriteBlt(GlobalAddr dst, Addr local_src, std::size_t bytes);
    /// @}

    /** @name Synchronization (§7.5) */
    /// @{
    /** Full barrier: start-barrier immediately followed by end. */
    BarrierAwaiter barrier();

    /**
     * Fuzzy barrier, first half: wait for outstanding stores,
     * perform the start-barrier instruction (notifying the other
     * processors), and return — code placed between start and end
     * overlaps with the synchronization (§7.5).
     */
    void startBarrier();

    /** Fuzzy barrier, second half: wait for every PE's start. */
    BarrierAwaiter endBarrier();
    /// @}

    /** @name User-level messages (§7.3) */
    /// @{
    void sendMessage(PeId dst, const std::array<std::uint64_t, 4> &words);
    MessageAwaiter waitMessage();

    /** Dequeue the head message, charging interrupt (+handler). */
    shell::Message takeMessage(bool handler_mode);
    /// @}

    /** @name Shared-memory Active Messages (§7.4) */
    /// @{
    /** Register the handler run by amPoll for @p tag. */
    void registerAmHandler(std::uint64_t tag, AmHandler handler);

    /** Deposit (tag, args) into @p dst's AM queue; one-way. */
    void amDeposit(PeId dst, std::uint64_t tag,
                   const std::array<std::uint64_t, 4> &args);

    /** Dispatch one pending AM if present. @return true if one ran. */
    bool amPoll();

    /** Wait until at least one AM deposit has arrived. */
    StoreSyncAwaiter amWait();

    /** Correct remote byte write via an AM to the owner (§4.5/§7.4). */
    void amWriteByte(GlobalAddr dst, std::uint8_t value);

    /** Remote fetch&increment (§7.4). */
    std::uint64_t fetchInc(PeId dst, unsigned reg);

    /** Remote atomic swap through the shell (§1.2). */
    std::uint64_t atomicSwap(GlobalAddr dst, std::uint64_t new_value);
    /// @}

    /** Charge @p cycles of local computation. */
    void compute(Cycles cycles) { _node.core().charge(cycles); }

    /** @name Internal (awaitables / scheduler) */
    /// @{
    Scheduler &scheduler() { return _sched; }

    /** End-barrier poll; true if the generation has completed. */
    bool barrierReady();

    /** Scheduler wake path: the parked end-barrier has completed. */
    void clearBarrierWait() { _barrierActive = false; }

    /**
     * Observability: account the barrier that just completed on this
     * PE (wait cycles since startBarrier and a trace span). Called on
     * whichever path finished the barrier — barrierReady() or the
     * scheduler's completeBarrier() wake.
     */
    void noteBarrierComplete();
    /// @}

    /**
     * Select / program the annex register for @p dst under the
     * configured policy; returns the annex index to use. Charges
     * policy costs (§3.4).
     */
    unsigned annexFor(PeId dst,
                      shell::ReadMode mode = shell::ReadMode::Uncached);

    /** Annexed virtual address for (annex index, local offset). */
    static Addr
    vaFor(unsigned idx, Addr offset)
    {
        return alpha::makeAnnexedVa(idx, offset);
    }

  private:
    /** Pop every outstanding get and store results to their targets. */
    void drainGets();

    /** Signaling-store common path. */
    void storeBytesSignaling(GlobalAddr dst, const void *src,
                             std::size_t len);

    /** Byte offset of AM queue slot @p slot in node memory. */
    Addr amSlotAddr(std::uint64_t slot) const;

    /** Address of slot @p slot of the DRAM overflow ring (placed
     *  directly after the primary queue). */
    Addr amOverflowSlotAddr(std::uint64_t slot) const;

    Scheduler &_sched;
    machine::Machine &_machine;
    machine::Node &_node;
    SplitcConfig _config;

    /** @name Annex policy state */
    /// @{
    /** SingleReload: PE currently loaded in annex register 1. */
    PeId _annexCurrent;
    bool _annexValid = false;
    shell::ReadMode _annexMode = shell::ReadMode::Uncached;

    /** HashedTable: mirror of table-managed entries (idx -> pe). */
    std::unordered_map<unsigned, PeId> _annexTable;
    /// @}

    /** get: target local addresses, FIFO-parallel to the prefetch
     *  queue (§5.4). */
    sim::RingBuffer<Addr> _getTable;

    bool _putsOutstanding = false;

    /** Fuzzy-barrier state: generation we arrived in. */
    std::uint32_t _barrierGen = 0;
    bool _barrierActive = false;

    /** When this PE performed its start-barrier (observability). */
    Cycles _barrierArrive = 0;

    /** Node counters (null when disabled) and machine trace sink. */
    probes::PerfCounters *_ctr = nullptr;
    probes::TraceSink *_trace = nullptr;

    /** BLT completion pending from a split-phase bulkGet/bulkPut. */
    Cycles _bltPending = 0;

    std::uint64_t _storeWatermark = 0;
    std::uint64_t _amWatermark = 0;

    /** AM receive cursor (next ticket to dispatch). */
    std::uint64_t _amHead = 0;

    /** Overflow-ring recovery cursor: spilled deposits this receiver
     *  has drained. The ring is indexed by claim order (the sender
     *  side counts claims in Scheduler::amFlow), so this addresses
     *  the oldest undispatched spill. */
    std::uint64_t _amSpillHead = 0;

    std::unordered_map<std::uint64_t, AmHandler> _amHandlers;
};

} // namespace t3dsim::splitc

#endif // T3DSIM_SPLITC_PROC_HH
