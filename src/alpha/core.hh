/**
 * @file
 * Alpha 21064 core model for *local* memory operations.
 *
 * Composes TLB, data cache, optional board-level L2 cache (DEC
 * workstation only), write buffer and DRAM into an instruction-level
 * API. Each call charges cycles to the node's clock and moves real
 * bytes. Remote (annexed) accesses are not handled here — the node
 * routes them to the shell (§4) — but synonym physical addresses that
 * resolve to the local PE do flow through this path, which is what
 * makes the §3.4 write-buffer hazard reproducible.
 */

#ifndef T3DSIM_ALPHA_CORE_HH
#define T3DSIM_ALPHA_CORE_HH

#include <cstdint>

#include "alpha/cache.hh"
#include "alpha/tlb.hh"
#include "alpha/write_buffer.hh"
#include "mem/dram.hh"
#include "mem/storage.hh"
#include "probes/counters.hh"
#include "sim/clock.hh"
#include "sim/types.hh"

namespace t3dsim::alpha
{

/** Per-instruction cost parameters of the 21064 core. */
struct CoreConfig
{
    /** Streamed load-hit cost; probe measures 6.67 ns/read (§2.2). */
    Cycles loadHitCycles = 1;

    /** Store issue into cache + write buffer (§2.3, ~20 ns merged). */
    Cycles storeIssueCycles = 3;

    /** Base cost of the memory-barrier instruction (§5.2 table). */
    Cycles mbCycles = 4;

    /** Register-to-register operation (byte manipulation etc.). */
    Cycles regOpCycles = 1;

    /** Cache-line flush, equivalent to a main-memory access (§4.4). */
    Cycles flushLineCycles = 23;

    /** Whole-cache flush (batched, cheaper than per-line; §6.2 fn 3). */
    Cycles flushAllCycles = 320;

    /** Board-level cache hit latency (workstation only). */
    Cycles l2HitCycles = 9;
};

/** The core. Owns no components; the node wires them in. */
class AlphaCore
{
  public:
    /**
     * @param l2 Board-level cache, or nullptr (T3D has none, §2.2).
     */
    AlphaCore(const CoreConfig &config, Clock &clock, Tlb &tlb,
              DirectMappedCache &dcache, WriteBuffer &wb,
              mem::DramController &dram, mem::Storage &storage,
              DirectMappedCache *l2 = nullptr);

    /** @name Timed local memory operations (charge the clock) */
    /// @{
    std::uint64_t loadU64(Addr va);
    std::uint32_t loadU32(Addr va);
    void storeU64(Addr va, std::uint64_t value);
    void storeU32(Addr va, std::uint32_t value);

    /**
     * Blocking store: STQ immediately followed by MB (§4.3, §4.5).
     * Same clock, drains and counters as storeU64() then mb(); into
     * an empty write buffer the line goes straight to the drain
     * port (WriteBuffer::writeThrough) instead of through a slot.
     */
    void storeU64Mb(Addr va, std::uint64_t value);

    /** Byte load: aligned LDQ + EXTBL (the 21064 has no byte loads). */
    std::uint8_t loadU8(Addr va);

    /**
     * Byte store: LDQ + MSKBL/INSBL + STQ read-modify-write. Not
     * atomic — the §4.5 clobbering hazard lives here.
     */
    void storeU8(Addr va, std::uint8_t value);
    /// @}

    /**
     * Memory barrier: force the write buffer to memory and stall
     * until it is empty (§4.3, §5.2).
     */
    void mb();

    /** Charge @p n register-operation cycles. */
    void
    chargeRegOps(unsigned n)
    {
        _clock.advance(Cycles{n} * _config.regOpCycles);
    }

    /**
     * Routing tag attached to the NEXT store only (the annex-
     * resolved destination, latched at translation time; consumed by
     * the store and reset to 0). The node sets this before issuing
     * annexed stores; 0 means plain local.
     */
    void setStoreTag(std::uint32_t tag) { _storeTag = tag; }

    /** Charge an arbitrary number of cycles (shell primitives). */
    void charge(Cycles cycles) { _clock.advance(cycles); }

    /** Flush (invalidate) the cache line holding @p va; 23 cycles. */
    void flushLine(Addr va);

    /** Flush the whole data cache (batched cost). */
    void flushAll();

    /** @name Untimed debug/backdoor access (test & loader support) */
    /// @{
    std::uint64_t peekU64(Addr va) const;
    void pokeU64(Addr va, std::uint64_t value);
    /// @}

    Clock &clock() { return _clock; }
    const CoreConfig &config() const { return _config; }
    Tlb &tlb() { return _tlb; }
    DirectMappedCache &dcache() { return _dcache; }
    WriteBuffer &writeBuffer() { return _wb; }
    mem::Storage &storage() { return _storage; }
    mem::DramController &dram() { return _dram; }

    /** Attach (or detach, with nullptr) the node's event counters. */
    void setCounters(probes::PerfCounters *ctr) { _ctr = ctr; }

  private:
    /** Common load path; @p len must not cross a cache line. */
    void loadBytes(Addr va, void *dst, std::size_t len);

    /** Issue half of a store: counters, TLB, cache write-through.
     *  @return the physical address. */
    Addr storeIssue(Addr va, const void *src, std::size_t len);

    /** Common store path; @p len must not cross a cache line. */
    void storeBytes(Addr va, const void *src, std::size_t len);

    CoreConfig _config;
    Clock &_clock;
    Tlb &_tlb;
    DirectMappedCache &_dcache;
    WriteBuffer &_wb;
    mem::DramController &_dram;
    mem::Storage &_storage;
    DirectMappedCache *_l2;

    probes::PerfCounters *_ctr = nullptr;

    std::uint32_t _storeTag = 0;
};

} // namespace t3dsim::alpha

#endif // T3DSIM_ALPHA_CORE_HH
