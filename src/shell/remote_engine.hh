/**
 * @file
 * Remote read/write engine of the shell (§4, §5.3).
 *
 * Reads are blocking at the processor: the load stalls for the full
 * round trip (uncached 91 cycles, cached 114 cycles to an adjacent
 * node, §4.2). Writes are fire-and-forget from the processor's view:
 * the write buffer drains annexed lines into the shell's injection
 * channel (one line per ~17 cycles, §5.3); the hardware returns an
 * acknowledgement that clears a status bit. The §4.3 subtlety is
 * modeled: the status bit only reflects writes that have left the
 * processor, so blocking writes must MB before polling.
 */

#ifndef T3DSIM_SHELL_REMOTE_ENGINE_HH
#define T3DSIM_SHELL_REMOTE_ENGINE_HH

#include <cstdint>

#include "alpha/core.hh"
#include "probes/counters.hh"
#include "probes/trace.hh"
#include "shell/annex.hh"
#include "shell/config.hh"
#include "shell/ports.hh"
#include "sim/arrivals.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace t3dsim::shell
{

/** Per-node remote access engine. */
class RemoteEngine
{
  public:
    RemoteEngine(const ShellConfig &config, PeId local_pe,
                 MachinePort &machine, alpha::AlphaCore &core);

    /**
     * Blocking remote read of @p len bytes (8 for a quadword load) at
     * @p offset on node @p dst. Charges the local clock for the full
     * round trip. For ReadMode::Cached the whole 32-byte line is
     * transferred and installed in the local data cache under
     * physical address @p pa (line-aligned internally).
     */
    std::uint64_t read(PeId dst, Addr offset, Addr pa, ReadMode mode);

    /**
     * Inject one drained write-buffer line into the network
     * (write-buffer DrainPort backend).
     *
     * @param ready Earliest time injection may begin.
     * @param remote_done Optional out-param: time the write was
     *        serviced at the remote memory (signaling stores log
     *        this as the receiver's data-arrival time).
     * @return Time the write-buffer slot is released (injection
     *         complete).
     */
    Cycles injectWriteLine(Cycles ready, PeId dst, Addr line_offset,
                           const std::uint8_t *data,
                           std::uint32_t byte_mask,
                           Cycles *remote_done = nullptr);

    /** True if any injected write's acknowledgement is outstanding. */
    bool writesOutstanding(Cycles now) const;

    /** Time by which every ack issued so far will have returned. */
    Cycles quietTime(Cycles now) const;

    /**
     * Poll the status bit until no remote writes are outstanding;
     * advances the local clock and charges the poll cost. The caller
     * must have issued an MB first (§4.3) — asserted via the write
     * buffer being empty of annexed lines is not checked here; the
     * node-level API enforces it.
     */
    void pollUntilQuiet();

    /** Atomic swap with remote memory through the shell register. */
    std::uint64_t swap(PeId dst, Addr offset, std::uint64_t new_value);

    /** Remote fetch&increment of register @p reg on node @p dst. */
    std::uint64_t fetchInc(PeId dst, unsigned reg);

    /** Send a four-word user-level message (§7.3). */
    void sendMessage(PeId dst, const std::uint64_t words[4]);

    /** Attach the local node's counters and the machine trace sink. */
    void
    setObservability(probes::PerfCounters *ctr, probes::TraceSink *trace)
    {
        _ctr = ctr;
        _trace = trace;
    }

  private:
    const ShellConfig &_config;
    PeId _localPe;
    MachinePort &_machine;
    alpha::AlphaCore &_core;

    /** Injection channel busy-until time. */
    Cycles _injectFree = 0;

    /** Remote completion times of recent in-flight writes (window). */
    sim::RingBuffer<Cycles> _inflight;

    /** Acknowledgement returns. */
    ArrivalLog _acks;
    Cycles _lastAck = 0;
    std::uint64_t _writesInjected = 0;

    probes::PerfCounters *_ctr = nullptr;
    probes::TraceSink *_trace = nullptr;
};

} // namespace t3dsim::shell

#endif // T3DSIM_SHELL_REMOTE_ENGINE_HH
