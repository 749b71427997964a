/**
 * @file
 * User-level message queue, receiver side (§7.3).
 *
 * Sends are cheap (a 122-cycle PAL call, charged by the
 * RemoteEngine); receives are expensive: the arriving message
 * interrupts the processor (25 us) before landing in the user-level
 * queue, and dispatching to a user message handler costs a further
 * 33 us. Those costs are charged to the *receiving* processor when
 * it takes a message out of the queue.
 *
 * The memory-resident queue holds msgQueueCapacity entries; arrivals
 * past that are spilled to a DRAM overflow region by system software
 * instead of being dropped (or aborting the model). A spilled
 * message costs the receiver an extra msgSpillDrainCycles copy-back
 * when it is finally dequeued, so a flooded receiver slows down but
 * the run completes — matching the paper's observation that the
 * receiver eats all queue-pressure cost. Under-capacity traffic is
 * charged exactly as before the spill path existed.
 */

#ifndef T3DSIM_SHELL_MSG_QUEUE_HH
#define T3DSIM_SHELL_MSG_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "probes/counters.hh"
#include "probes/trace.hh"
#include "shell/config.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace t3dsim::shell
{

/** A four-word T3D network message. */
struct Message
{
    /** Network arrival time at the receiving node. */
    Cycles arrival = 0;

    std::array<std::uint64_t, 4> words{};
};

/** Per-node user-level receive queue. */
class MessageQueue
{
  public:
    explicit MessageQueue(const ShellConfig &config);

    /** Network-side delivery of an arriving message. */
    void deliver(Cycles arrive, const std::uint64_t words[4]);

    /** True if a message is queued (regardless of arrival time). */
    bool hasMessage() const { return !_hw.empty(); }

    /** Arrival time of the queue head, if any. */
    std::optional<Cycles> headArrival() const;

    /**
     * Dequeue the head message and compute the time the receiving
     * processor is done absorbing it:
     *   max(now, arrival) + interrupt (+ handler dispatch when
     *   @p handler_mode).
     *
     * The caller advances its clock to the returned time.
     */
    std::pair<Message, Cycles> dequeue(Cycles now, bool handler_mode);

    /** Queued messages, hardware segment plus spill region. */
    std::size_t depth() const { return _hw.size() + _spill.size(); }

    /** Messages currently parked in the DRAM overflow region. */
    std::size_t spillDepth() const { return _spill.size(); }

    /**
     * Install a host-side hook fired after every deliver(). Used by
     * the SPMD executor to wake a parked receiver event-driven
     * instead of polling the queue; must not touch simulated state.
     */
    void
    setDeliveryListener(std::function<void()> listener)
    {
        _onDeliver = std::move(listener);
    }

    /** Remove the deliver() hook. */
    void clearDeliveryListener() { _onDeliver = nullptr; }

    /**
     * Attach the receiving node's counters and the machine trace
     * sink. The queue doesn't know its PE, so the shell passes it.
     */
    void
    setObservability(probes::PerfCounters *ctr, probes::TraceSink *trace,
                     PeId pe)
    {
        _ctr = ctr;
        _trace = trace;
        _pe = pe;
    }

  private:
    /** A queued message plus where it currently resides. */
    struct Entry
    {
        Message msg;

        /** True if the entry ever sat in the DRAM overflow region
         *  (the copy-back cost is charged at dequeue). */
        bool spilled = false;
    };

    const ShellConfig &_config;

    /**
     * Invariant: concat(_hw, _spill) is sorted by arrival, and
     * _spill is non-empty only while _hw is at capacity — system
     * software refills the hardware segment as it drains.
     */
    sim::RingBuffer<Entry> _hw;
    sim::RingBuffer<Entry> _spill;

    std::function<void()> _onDeliver;

    probes::PerfCounters *_ctr = nullptr;
    probes::TraceSink *_trace = nullptr;
    PeId _pe = 0;
};

} // namespace t3dsim::shell

#endif // T3DSIM_SHELL_MSG_QUEUE_HH
