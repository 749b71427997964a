/**
 * @file
 * Block transfer engine (§6.2).
 *
 * A system-level DMA device that moves large contiguous or strided
 * blocks between local and remote memory. Its defining properties,
 * both modeled:
 *
 *  - invocation requires an operating-system call with an egregious
 *    180 us startup overhead charged to the invoking processor,
 *  - once started it streams at up to 140 MB/s for reads (write
 *    streaming is modeled at 85 MB/s, below the 90 MB/s non-blocking
 *    store path, which is why stores always win for bulk writes).
 *
 * The transfer itself runs asynchronously: start*() returns the DMA
 * completion time so bulk_get/bulk_put can overlap computation;
 * wait() stalls the processor until completion.
 */

#ifndef T3DSIM_SHELL_BLT_HH
#define T3DSIM_SHELL_BLT_HH

#include <cstdint>

#include "alpha/core.hh"
#include "probes/counters.hh"
#include "probes/trace.hh"
#include "shell/config.hh"
#include "shell/ports.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace t3dsim::shell
{

/** Per-node block transfer engine. */
class BlockTransferEngine
{
  public:
    BlockTransferEngine(const ShellConfig &config, PeId local_pe,
                        MachinePort &machine, alpha::AlphaCore &core);

    /**
     * Start a DMA read of @p len bytes from (@p src, @p remote_offset)
     * into local memory at @p local_offset. Charges the OS startup
     * cost (and a write-buffer drain) to the local clock; moves the
     * data; returns the DMA completion time.
     */
    Cycles startRead(PeId src, Addr remote_offset, Addr local_offset,
                     std::size_t len);

    /** Start a DMA write of local memory to a remote node. */
    Cycles startWrite(PeId dst, Addr remote_offset, Addr local_offset,
                      std::size_t len);

    /**
     * Strided read: @p count elements of @p elem_bytes, advancing the
     * remote address by @p remote_stride and the local address by
     * @p local_stride per element.
     */
    Cycles startStridedRead(PeId src, Addr remote_offset,
                            std::size_t remote_stride, Addr local_offset,
                            std::size_t local_stride,
                            std::size_t elem_bytes, std::size_t count);

    /** Strided write, mirror of startStridedRead. */
    Cycles startStridedWrite(PeId dst, Addr remote_offset,
                             std::size_t remote_stride, Addr local_offset,
                             std::size_t local_stride,
                             std::size_t elem_bytes, std::size_t count);

    /** Stall the local clock until @p completion. */
    void wait(Cycles completion);

    /** Attach the local node's counters and the machine trace sink. */
    void
    setObservability(probes::PerfCounters *ctr, probes::TraceSink *trace)
    {
        _ctr = ctr;
        _trace = trace;
    }

  private:
    /** Common startup accounting; returns the DMA start time. */
    Cycles invoke();

    /** Account the streaming phase of a transfer ending at
     *  _lastCompletion. */
    void noteTransfer(const char *name, Cycles start);

    /** Streaming cycles for @p len bytes in direction @p is_read. */
    Cycles streamCycles(std::size_t len, bool is_read) const;

    const ShellConfig &_config;
    PeId _localPe;
    MachinePort &_machine;
    alpha::AlphaCore &_core;
    Cycles _lastCompletion = 0;

    /** Completion times of transfers still streaming, sorted. The
     *  engine sustains bltMaxInFlight of them; invoking it past that
     *  stalls the caller until the earliest one completes. */
    sim::RingBuffer<Cycles> _outstanding;

    probes::PerfCounters *_ctr = nullptr;
    probes::TraceSink *_trace = nullptr;
};

} // namespace t3dsim::shell

#endif // T3DSIM_SHELL_BLT_HH
