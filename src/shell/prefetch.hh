/**
 * @file
 * The 16-entry binding prefetch queue (§5.2).
 *
 * The Alpha FETCH hint is interpreted by the shell as a *binding*
 * prefetch: the remote word is fetched immediately (its value is
 * captured at service time, not at pop time) into an off-chip FIFO
 * that the processor pops by loading a memory-mapped address.
 *
 * Modeled cost structure, matching the paper's breakdown:
 *   issue 4 cycles, MB 4 cycles (charged by the caller when fewer
 *   than 4 prefetches are outstanding), ~80-cycle round trip,
 *   23-cycle pop. Back-to-back prefetches pipeline through the
 *   injection channel and the remote DRAM, which is what makes a
 *   group of 16 cost ~31 cycles per element.
 */

#ifndef T3DSIM_SHELL_PREFETCH_HH
#define T3DSIM_SHELL_PREFETCH_HH

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

/** Per-node binding prefetch FIFO. */
class PrefetchQueue
{
  public:
    PrefetchQueue(const ShellConfig &config, PeId local_pe,
                  MachinePort &machine, alpha::AlphaCore &core);

    /**
     * Issue a binding prefetch of the quadword at @p offset on node
     * @p dst. Charges the issue cost to the local clock. Issuing
     * past the hardware slots is legal-but-extreme traffic: the real
     * hardware would corrupt the FIFO, so the model idealizes the
     * overflow as a DRAM-side spill buffer — the entry pays
     * prefetchSpillCycles extra at issue and again at pop, and the
     * under-capacity cost structure is untouched.
     */
    void issue(PeId dst, Addr offset);

    /**
     * Pop the queue head: stalls until the head's data has arrived,
     * then charges the off-chip pop cost.
     */
    std::uint64_t pop();

    /** Entries issued and not yet popped. */
    unsigned outstanding() const
    {
        return static_cast<unsigned>(_fifo.size());
    }

    bool full() const { return outstanding() >= _config.prefetchSlots; }
    bool empty() const { return _fifo.empty(); }

    /**
     * True if the caller must MB before popping (fewer than the
     * write-buffer-flushing threshold of requests outstanding, §5.2).
     */
    bool needsMbBeforePop() const
    {
        return outstanding() < _config.prefetchMbThreshold;
    }

    /** Attach the local node's counters and the machine trace sink. */
    void
    setObservability(probes::PerfCounters *ctr, probes::TraceSink *trace)
    {
        _ctr = ctr;
        _trace = trace;
    }

  private:
    struct Slot
    {
        Cycles arrival;
        std::uint64_t data;

        /** Issued past the hardware slots: pays the spill cost at
         *  pop as well as at issue. */
        bool spilled = false;
    };

    const ShellConfig &_config;
    PeId _localPe;
    MachinePort &_machine;
    alpha::AlphaCore &_core;

    sim::RingBuffer<Slot> _fifo;
    Cycles _injectFree = 0;

    probes::PerfCounters *_ctr = nullptr;
    probes::TraceSink *_trace = nullptr;
};

} // namespace t3dsim::shell

#endif // T3DSIM_SHELL_PREFETCH_HH
