#include "shell/prefetch.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace t3dsim::shell
{

PrefetchQueue::PrefetchQueue(const ShellConfig &config, PeId local_pe,
                             MachinePort &machine, alpha::AlphaCore &core)
    : _config(config), _localPe(local_pe), _machine(machine), _core(core)
{
}

void
PrefetchQueue::issue(PeId dst, Addr offset)
{
    // Issuing past the hardware slots spills the reply to a DRAM
    // buffer instead of corrupting the FIFO: charge the spill cost
    // here and mark the slot so pop() charges it again.
    const bool spill = full();
    if (spill)
        T3D_COUNT(_ctr, prefetchSpills);
    T3D_COUNT(_ctr, prefetchIssues);

    Clock &clock = _core.clock();
    const Cycles t0 = clock.now();
    clock.advance(_config.prefetchIssueCycles);
    if (spill)
        clock.advance(_config.prefetchSpillCycles);

    // The request leaves through the shell's injection channel;
    // back-to-back prefetches pipeline at the injection interval.
    const Cycles start = std::max(clock.now(), _injectFree);
    const Cycles injected = start + _config.prefetchInjectCycles;
    _injectFree = injected;

    const Cycles transit = _machine.transitCycles(_localPe, dst);

    Slot slot{};
    slot.spilled = spill;
    if (dst == _localPe) {
        // Prefetch of a local address: served by local memory, no
        // network transit. (Useful and legal; rare in practice.)
        auto access = _core.dram().access(injected, offset);
        // The request is ordered behind pending write-buffer entries
        // (prefetches travel through the write buffer, §5.2), so it
        // observes the core's coherent view.
        slot.data = _core.peekU64(offset);
        slot.arrival = access.complete + _config.prefetchFixedCycles;
    } else {
        RemoteMemoryPort &port = _machine.remoteMemory(dst);
        // BINDING: the value is captured at remote service time.
        const Cycles remote_done =
            port.serviceRead(injected + transit, offset, &slot.data, 8,
                             _localPe);
        slot.arrival =
            remote_done + transit + _config.prefetchFixedCycles;
    }

    // FIFO arrival order cannot invert: a later request's data is
    // not visible before an earlier one's.
    if (!_fifo.empty())
        slot.arrival = std::max(slot.arrival, _fifo.back().arrival);
    _fifo.push_back(slot);
    T3D_TRACE(_trace, span(_localPe, "prefetch_issue", t0, clock.now(),
                           "dst", dst));
}

std::uint64_t
PrefetchQueue::pop()
{
    T3D_FATAL_IF(_fifo.empty(), "pop from an empty prefetch queue");
    T3D_COUNT(_ctr, prefetchDrains);

    Slot slot = _fifo.front();
    _fifo.pop_front();

    Clock &clock = _core.clock();
    const Cycles t0 = clock.now();
    clock.syncTo(slot.arrival);
    clock.advance(_config.prefetchPopCycles);
    // A spilled entry is recovered from the DRAM-side buffer rather
    // than the memory-mapped FIFO head.
    if (slot.spilled)
        clock.advance(_config.prefetchSpillCycles);
    T3D_TRACE(_trace, span(_localPe, "prefetch_pop", t0, clock.now()));
    return slot.data;
}

} // namespace t3dsim::shell
