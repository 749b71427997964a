/**
 * @file
 * Alpha 21064 write-buffer model (§2.3).
 *
 * Four entries, each one cache line (32 bytes) wide, with
 * write-merging: consecutive stores to the same line coalesce into
 * one entry as long as that entry has not yet issued to memory. The
 * probe-visible consequences modeled here:
 *
 *  - stores to the same line cost ~3 cycles (20 ns) each (merging),
 *  - a stream of line-distinct stores sustains one retirement every
 *    ~35 ns (4 entries overlapped against a 145 ns memory, §2.3),
 *  - data sits in the buffer until its drain completes; loads check
 *    the buffer *by physical address*, so a load from a synonym
 *    (same location, different DTB-Annex index, hence different
 *    physical address) bypasses the pending write and reads a stale
 *    value from memory — the hazard of §3.4,
 *  - the remote-write status bit only reflects writes that have left
 *    the processor; writes still in the buffer require an MB before
 *    polling (§4.3) — which is why blocking writes drain first.
 *
 * The buffer is drain-target agnostic: a DrainPort (implemented by
 * the node) routes local lines to the DRAM controller and annexed
 * lines to the shell's remote-write path.
 *
 * Host cost: every simulated store passes through here, so an entry
 * is built in place in the ring, its byte mask is one shift, and
 * the port commits it by 8-byte words (mem::Storage::writeMasked).
 * A blocking write (store + MB) into an empty buffer builds no entry
 * at all (writeThrough()).
 */

#ifndef T3DSIM_ALPHA_WRITE_BUFFER_HH
#define T3DSIM_ALPHA_WRITE_BUFFER_HH

#include <array>
#include <cstdint>

#include "probes/counters.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace t3dsim::alpha
{

/** Maximum bytes per write-buffer entry (one cache line). */
constexpr std::size_t wbLineBytes = 32;

/** Where drained write-buffer lines go. */
class DrainPort
{
  public:
    /** Outcome of scheduling one line drain. */
    struct DrainResult
    {
        /** Time the line has been accepted by the target. */
        Cycles completion;

        /**
         * True if the port wants the buffer to keep the data and
         * deliver it via commitLine() once completion passes (local
         * memory, so that pending data stays invisible to synonym
         * reads). False if the port moved the data itself (remote).
         */
        bool deferCommit;
    };

    virtual ~DrainPort() = default;

    /**
     * Schedule the drain of one line beginning no earlier than
     * @p ready.
     *
     * @param ready Earliest cycle the drain may begin.
     * @param pa Line-aligned physical address.
     * @param data wbLineBytes bytes of line data.
     * @param byte_mask Bit i set iff data[i] is valid.
     * @param tag Routing tag latched when the store issued (the DTB
     *        annex is consulted at address translation, before the
     *        write buffer, so the destination travels with the
     *        entry). 0 for plain local stores.
     */
    virtual DrainResult drainLine(Cycles ready, Addr pa,
                                  const std::uint8_t *data,
                                  std::uint32_t byte_mask,
                                  std::uint32_t tag) = 0;

    /** Deliver a deferred local line to backing storage. */
    virtual void commitLine(Addr pa, const std::uint8_t *data,
                            std::uint32_t byte_mask) = 0;
};

/** The 4-entry merging write buffer. */
class WriteBuffer
{
  public:
    struct Config
    {
        /** Number of entries; 21064: 4 (§2.3). */
        unsigned entries = 4;

        /**
         * Cycles an entry lingers before issuing to memory, which is
         * the window during which merging is possible.
         */
        Cycles holdoffCycles = 12;

        /** Cycles charged to a store accepted without stalling. */
        Cycles issueCycles = 3;
    };

    WriteBuffer(const Config &config, DrainPort &port);

    /**
     * Accept a store of @p len bytes (must not cross a line).
     * Stores merge only into a pending entry with the same line
     * address AND the same routing tag — two stores to one line
     * bound for different destinations must not coalesce.
     * @return Cycles charged to the storing processor (issue cost
     *         plus any full-buffer stall).
     */
    Cycles write(Cycles now, Addr pa, const void *src, std::size_t len,
                 std::uint32_t tag = 0);

    /**
     * A store immediately followed by MB, into a buffer that is
     * empty at @p now (the caller checked occupancy()). The MB finds
     * the line the only one pending and issues it at once, or when
     * its hold-off expires if that comes first; it then waits for
     * the drain. So the line goes straight through the drain port
     * (drainLine, then commitLine if deferred) and retires, with no
     * slot built: the same port calls, times and counters as
     * write() then drainAll().
     * @return The drain's completion time (the MB's wait target).
     */
    Cycles writeThrough(Cycles now, Addr pa, const void *src,
                        std::size_t len, std::uint32_t tag);

    /**
     * Overlay any pending bytes overlapping [pa, pa+len) onto
     * @p buf (load forwarding by exact physical address).
     * @return true if any pending byte overlapped.
     */
    bool forward(Cycles now, Addr pa, void *buf, std::size_t len);

    /** True if any pending (uncommitted) entry overlaps the line. */
    bool holdsLine(Cycles now, Addr pa);

    /**
     * Advance the buffer's lazy machinery to @p now: issue entries
     * whose hold-off expired, and commit+free entries whose drain
     * completed. Called at the head of every memory operation, so
     * the no-work cases (nothing pending issue, nothing completed)
     * are decided inline without a function call.
     */
    void
    commitUpTo(Cycles now)
    {
        if (_unscheduled != 0 && now >= _earliestDue)
            issueDue(now);
        if (!_slots.empty() && _slots.front().scheduled &&
            _slots.front().completion <= now)
            retireCompleted(now);
    }

    /**
     * Force-issue everything and report when the buffer is empty.
     * Does not advance or commit; callers advance their clock to the
     * returned time and then call commitUpTo(). Used by MB.
     */
    Cycles drainAll(Cycles now);

    /** Entries currently occupied (after lazy advance to @p now). */
    unsigned occupancy(Cycles now);

    /** Attach (or detach, with nullptr) the node's event counters. */
    void setCounters(probes::PerfCounters *ctr) { _ctr = ctr; }

    const Config &config() const { return _config; }

  private:
    /** One entry; emplace_back(line, tag, mask, accept) fills the
     *  leading fields in order (C++20 aggregate init). */
    struct Slot
    {
        Addr lineAddr = 0;
        std::uint32_t tag = 0;
        std::uint32_t mask = 0;
        Cycles accept = 0;
        Cycles completion = 0;
        bool scheduled = false;
        bool deferCommit = false;
        std::array<std::uint8_t, wbLineBytes> data{};
    };

    /** Issue (schedule) every unscheduled slot whose start <= now. */
    void issueDue(Cycles now);

    /** Issue one slot through the drain port. */
    void issueSlot(Slot &slot, Cycles ready);

    /** Free (and commit, if deferred) completed slots. */
    void retireCompleted(Cycles now);

    Config _config;
    DrainPort &_port;

    /** FIFO of occupied slots, oldest first. */
    sim::RingBuffer<Slot> _slots;

    /** Slots not yet issued to memory; issueDue() is called at the
     *  head of every memory operation and almost always has nothing
     *  to do, so it early-outs on this count and the earliest
     *  hold-off expiry instead of scanning. */
    unsigned _unscheduled = 0;

    /** Lower bound on the earliest unscheduled slot's issue time
     *  (meaningful only while _unscheduled > 0; may be stale-low
     *  after a forced issue, which merely costs one extra scan). */
    Cycles _earliestDue = 0;

    probes::PerfCounters *_ctr = nullptr;
};

} // namespace t3dsim::alpha

#endif // T3DSIM_ALPHA_WRITE_BUFFER_HH
