/**
 * @file
 * One T3D node: Alpha core + local memory + shell, wired together.
 *
 * The node is the program-facing API of the machine model. Loads and
 * stores are routed the way the hardware routes them: plain local
 * virtual addresses go to the core's cache/write-buffer/DRAM path;
 * annexed virtual addresses resolve through the DTB Annex — to the
 * local path when the entry names the local PE (synonyms included),
 * to the shell's remote engine otherwise.
 *
 * Node implements the two wiring interfaces:
 *  - alpha::DrainPort: routes drained write-buffer lines to local
 *    DRAM (deferred commit — pending data stays invisible to synonym
 *    reads, §3.4) or to the shell's injection channel;
 *  - shell::RemoteMemoryPort: services requests arriving from other
 *    nodes against this node's DRAM timing and storage.
 */

#ifndef T3DSIM_MACHINE_NODE_HH
#define T3DSIM_MACHINE_NODE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "alpha/address.hh"
#include "alpha/cache.hh"
#include "alpha/core.hh"
#include "alpha/tlb.hh"
#include "alpha/write_buffer.hh"
#include "machine/config.hh"
#include "mem/dram.hh"
#include "mem/storage.hh"
#include "probes/counters.hh"
#include "probes/trace.hh"
#include "shell/ports.hh"
#include "shell/shell.hh"
#include "sim/arrivals.hh"
#include "sim/clock.hh"
#include "sim/types.hh"

namespace t3dsim::machine
{

/** A processing element of the modeled T3D. */
class Node : public shell::RemoteMemoryPort, public alpha::DrainPort
{
  public:
    Node(const MachineConfig &config, PeId pe,
         shell::MachinePort &machine);

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;
    ~Node();

    /** @name Program-facing timed memory operations */
    /// @{
    std::uint64_t loadU64(Addr va);
    std::uint32_t loadU32(Addr va);
    std::uint8_t loadU8(Addr va);
    void storeU64(Addr va, std::uint64_t value);
    void storeU32(Addr va, std::uint32_t value);
    void storeU8(Addr va, std::uint8_t value);
    void mb() { _core.mb(); }

    /** storeU64() then mb() as one blocking store (a remote one is
     *  then acknowledged only once polled for, see
     *  waitRemoteWrites()). */
    void storeU64Mb(Addr va, std::uint64_t value);
    /// @}

    /**
     * FETCH hint through the annex: issue a binding prefetch of the
     * quadword at @p va (§5.2).
     */
    void fetchHint(Addr va);

    /** Pop the prefetch queue (load of the memory-mapped address). */
    std::uint64_t popPrefetch() { return _shell.prefetch().pop(); }

    /**
     * Block until every injected remote write has been acknowledged:
     * MB (push pending stores out of the write buffer — the §4.3
     * subtlety) then poll the status bit.
     */
    void waitRemoteWrites();

    /** Atomic swap on the node named by @p va's annex entry. */
    std::uint64_t swap(Addr va, std::uint64_t new_value);

    /** @name Components */
    /// @{
    Clock &clock() { return _clock; }
    alpha::AlphaCore &core() { return _core; }
    shell::Shell &shell() { return _shell; }
    mem::Storage &storage() { return _storage; }
    mem::DramController &dram() { return _dram; }
    alpha::DirectMappedCache &dcache() { return _dcache; }
    alpha::WriteBuffer &writeBuffer() { return _wb; }
    alpha::Tlb &tlb() { return _tlb; }
    PeId pe() const { return _pe; }
    /// @}

    /**
     * Bump-allocate @p bytes of this node's local segment (program
     * data; no timing).
     */
    Addr alloc(std::size_t bytes, std::size_t align = 8);

    /** @name shell::RemoteMemoryPort (network-side service) */
    /// @{
    Cycles serviceRead(Cycles arrive, Addr offset, void *dst,
                       std::size_t len, PeId requester) override;
    Cycles serviceWrite(Cycles arrive, Addr offset, const void *src,
                        std::size_t len, bool cache_inval,
                        PeId requester) override;
    Cycles serviceWriteMasked(Cycles arrive, Addr line_offset,
                              const std::uint8_t *data,
                              std::uint32_t byte_mask, bool cache_inval,
                              PeId requester) override;
    Cycles serviceSwap(Cycles arrive, Addr offset,
                       std::uint64_t new_value, std::uint64_t &old_value,
                       PeId requester) override;
    Cycles serviceFetchInc(Cycles arrive, unsigned reg,
                           std::uint64_t &old_value) override;
    void serviceMessage(Cycles arrive,
                        const std::uint64_t words[4]) override;
    void bulkReadRaw(Addr offset, void *dst, std::size_t len) override;
    void bulkWriteRaw(Addr offset, const void *src,
                      std::size_t len) override;
    /// @}

    /** @name alpha::DrainPort (write-buffer drain routing) */
    /// @{
    DrainResult drainLine(Cycles ready, Addr pa, const std::uint8_t *data,
                          std::uint32_t byte_mask,
                          std::uint32_t tag) override;
    void commitLine(Addr pa, const std::uint8_t *data,
                    std::uint32_t byte_mask) override;
    /// @}

    /** First allocatable offset (below is reserved scratch). */
    static constexpr Addr allocBase = 64 * KiB;

    /**
     * Timestamped arrivals of signaling-store bytes into this node's
     * memory (store_sync support, §7.1).
     */
    ArrivalLog &storeArrivals() { return _storeArrivals; }

    /** Timestamped arrivals of Active-Message deposits (§7.4). */
    ArrivalLog &amArrivals() { return _amArrivals; }

    /**
     * Install the SPMD executor's wakeup hooks: host-side callbacks
     * fired when store bytes, AM deposits, or user messages arrive
     * at this node, so the executor can wake parked PEs event-driven
     * instead of polling every node each scheduling step. The hooks
     * carry no simulated state and cannot affect model timing.
     */
    void setWakeupHooks(std::function<void()> on_store_arrival,
                        std::function<void()> on_am_arrival,
                        std::function<void()> on_message);

    /** Remove all executor wakeup hooks. */
    void clearWakeupHooks();

    /**
     * Host bytes resident for this node's model state: the node
     * object plus the dynamic parts of the dominant per-PE
     * structures (storage chunks and directory, D-cache sectors,
     * TLB entries, requester channels, counter block, arrival
     * logs). Small fixed-size shell containers are excluded.
     */
    std::size_t residentModelBytes() const;

    /** @name Observability */
    /// @{
    /**
     * This node's event record. The non-const accessor materializes
     * the (lazily-allocated) record; the const accessor never
     * allocates and returns a shared all-zero record while the node
     * has none.
     */
    probes::PerfCounters &counters();
    const probes::PerfCounters &counters() const;

    /**
     * The record when counting is enabled (materialized at
     * enableObservability() time), nullptr otherwise.
     */
    probes::PerfCounters *
    countersIfEnabled()
    {
        return _countersOn ? _counters.get() : nullptr;
    }

    /**
     * Wire the counter record and the machine-wide trace sink
     * (either may be disabled/null) into the core, TLB, write
     * buffer, DRAM, and shell. Called by the Machine constructor.
     */
    void enableObservability(bool counters_on, probes::TraceSink *trace);
    /// @}

  private:
    /**
     * Resolve the destination PE of an annexed virtual address at
     * store issue and latch it as the core's store tag (the DTB
     * annex is consulted during address translation, before the
     * write buffer; the destination travels with the entry).
     */
    PeId latchStoreTarget(Addr va);

    MachineConfig _config;
    PeId _pe;
    shell::MachinePort &_machine;

    Clock _clock;
    mem::Storage _storage;
    mem::DramController _dram;
    alpha::Tlb _tlb;
    alpha::DirectMappedCache _dcache;
    alpha::WriteBuffer _wb;
    alpha::AlphaCore _core;
    shell::Shell _shell;

    ArrivalLog _storeArrivals;
    ArrivalLog _amArrivals;

    /**
     * Per-requester timing view of this node's memory system: the
     * DRAM page/bank state of that requester's own access stream
     * (see shell::RemoteMemoryPort for why contention between
     * requesters is deliberately not modeled) and the write-port
     * busy-until time. The memory controller services one
     * requester's network writes through a single port: a row miss
     * stalls that stream for the full access, an in-page write only
     * for the column cycle — what makes 16 KB-stride non-blocking
     * writes visibly slower (§5.3).
     */
    struct RequesterChannel
    {
        explicit RequesterChannel(const mem::DramConfig &config)
            : dram(config)
        {
        }

        mem::DramController dram;
        Cycles writePortFree = 0;
    };

    /**
     * Requester → channel map with two representations. Small
     * machines keep a dense flat array indexed by requester — a plain
     * load on the remote-access hot path (per-op hash lookups showed
     * up at 256 PEs) — with lazily-allocated entries. Beyond densePes
     * the array itself would be the O(P^2) footprint (512 KB per node
     * at 64K PEs before a single access), so large machines switch to
     * an open-addressing hash sized by the requesters actually seen.
     */
    class ChannelTable
    {
      public:
        explicit ChannelTable(std::uint32_t num_pes);

        /** Lookup; nullptr if never materialized. */
        RequesterChannel *
        find(PeId requester) const
        {
            if (!_dense.empty())
                return _dense[requester].get();
            return findSparse(requester);
        }

        /** Materialize the channel for @p requester, which must not
         *  have one yet (find() returned nullptr). */
        RequesterChannel &create(PeId requester,
                                 const mem::DramConfig &config,
                                 probes::PerfCounters *ctr);

        /** Visit every materialized channel. */
        template <typename F>
        void
        forEach(F &&f)
        {
            for (auto &ch : _dense)
                if (ch)
                    f(*ch);
            for (auto &entry : _sparse)
                if (entry.chan)
                    f(*entry.chan);
        }

        /** Host bytes resident (self + tables + channels). */
        std::size_t residentBytes() const;

        /** Largest machine still using the dense representation. */
        static constexpr std::uint32_t densePes = 1024;

      private:
        struct Entry
        {
            std::uint32_t key = 0; ///< requester+1; 0 empty
            std::unique_ptr<RequesterChannel> chan;
        };

        /** Home slot of @p key in a pow-2 table of 2^(64-shift). */
        static std::size_t
        slotOf(std::uint32_t key, unsigned shift)
        {
            return static_cast<std::size_t>(
                (key * 0x9E3779B97F4A7C15ull) >> shift);
        }

        /** Probe position of @p key in _sparse: its slot or the
         *  empty slot where it would go. */
        std::size_t probe(std::uint32_t key) const;

        RequesterChannel *findSparse(PeId requester) const;

        /** Rehash into a table of @p capacity entries. */
        void grow(std::size_t capacity);

        std::vector<std::unique_ptr<RequesterChannel>> _dense;
        std::vector<Entry> _sparse;
        unsigned _hashShift = 64; ///< 64 - log2(_sparse.size())
        std::size_t _count = 0;
    };

    RequesterChannel &channelFor(PeId requester);

    ChannelTable _channels;

    Addr _allocNext = allocBase;

    /** Materialized on first use / at enableObservability(true). */
    std::unique_ptr<probes::PerfCounters> _counters;
    bool _countersOn = false;
};

} // namespace t3dsim::machine

#endif // T3DSIM_MACHINE_NODE_HH
