#include "shell/remote_engine.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace t3dsim::shell
{

RemoteEngine::RemoteEngine(const ShellConfig &config, PeId local_pe,
                           MachinePort &machine, alpha::AlphaCore &core)
    : _config(config), _localPe(local_pe), _machine(machine), _core(core)
{
}

std::uint64_t
RemoteEngine::read(PeId dst, Addr offset, Addr pa, ReadMode mode)
{
    T3D_ASSERT(dst != _localPe,
               "remote engine asked to read from the local node");
    T3D_COUNT(_ctr, remoteReads);

    Clock &clock = _core.clock();
    const Cycles t0 = clock.now();
    const Cycles transit = _machine.transitCycles(_localPe, dst);
    RemoteMemoryPort &port = _machine.remoteMemory(dst);

    const Cycles request_arrive = clock.now() + transit;

    std::uint64_t value = 0;
    Cycles done;
    if (mode == ReadMode::Cached) {
        // Transfer the whole 32-byte line and install it locally.
        const std::size_t line_bytes = _core.dcache().lineBytes();
        const Addr line_offset = offset & ~(line_bytes - 1);
        std::uint8_t line[256];
        T3D_ASSERT(line_bytes <= sizeof(line),
                   "cache line larger than transfer buffer");
        Cycles remote_done =
            port.serviceRead(request_arrive, line_offset, line,
                             line_bytes, _localPe);
        done = remote_done + transit + _config.readFixedCycles +
            _config.cachedReadExtraCycles;
        const Addr line_pa = pa & ~(Addr{line_bytes} - 1);
        _core.dcache().fill(line_pa, line);
        std::memcpy(&value, line + (offset - line_offset), 8);
    } else {
        Cycles remote_done =
            port.serviceRead(request_arrive, offset, &value, 8,
                             _localPe);
        done = remote_done + transit + _config.readFixedCycles;
    }

    clock.advanceTo(done);
    T3D_TRACE(_trace, span(_localPe, "remote_read", t0, done, "dst", dst));
    return value;
}

Cycles
RemoteEngine::injectWriteLine(Cycles ready, PeId dst, Addr line_offset,
                              const std::uint8_t *data,
                              std::uint32_t byte_mask,
                              Cycles *remote_done_out)
{
    T3D_ASSERT(dst != _localPe,
               "remote engine asked to write to the local node");
    ++_writesInjected;
    T3D_COUNT(_ctr, remoteWriteLines);

    Cycles start = std::max(ready, _injectFree);
    // Backpressure: at most writeWindow writes between injection and
    // remote service completion.
    if (_inflight.size() >= _config.writeWindow) {
        start = std::max(
            start, _inflight[_inflight.size() - _config.writeWindow]);
    }
    const auto payload_bytes =
        static_cast<unsigned>(std::popcount(byte_mask));
    const Cycles inject_cost = _config.writeInjectBaseCycles +
        static_cast<Cycles>(_config.writeInjectPerByteCycles *
                            payload_bytes);
    const Cycles injected = start + inject_cost;
    _injectFree = injected;

    const Cycles transit = _machine.transitCycles(_localPe, dst);
    RemoteMemoryPort &port = _machine.remoteMemory(dst);

    const Cycles remote_done = port.serviceWriteMasked(
        injected + transit, line_offset, data, byte_mask,
        /*cache_inval=*/true, _localPe);

    if (remote_done_out)
        *remote_done_out = remote_done;
    _inflight.push_back(remote_done);
    while (_inflight.size() > _config.writeWindow)
        _inflight.pop_front();

    const Cycles ack =
        remote_done + transit + _config.writeFixedCycles;
    _acks.record(ack, 1);
    _lastAck = std::max(_lastAck, ack);

    T3D_TRACE(_trace, span(_localPe, "remote_write", start, remote_done,
                           "dst", dst));
    return injected;
}

bool
RemoteEngine::writesOutstanding(Cycles now) const
{
    return _acks.arrivedBy(now) < _writesInjected;
}

Cycles
RemoteEngine::quietTime(Cycles now) const
{
    return std::max(now, _lastAck);
}

void
RemoteEngine::pollUntilQuiet()
{
    Clock &clock = _core.clock();
    clock.advanceTo(quietTime(clock.now()));
    clock.advance(_config.statusPollCycles);
}

std::uint64_t
RemoteEngine::swap(PeId dst, Addr offset, std::uint64_t new_value)
{
    Clock &clock = _core.clock();
    const Cycles t0 = clock.now();
    const Cycles transit = _machine.transitCycles(_localPe, dst);
    RemoteMemoryPort &port = _machine.remoteMemory(dst);

    std::uint64_t old_value = 0;
    const Cycles remote_done = port.serviceSwap(
        clock.now() + transit, offset, new_value, old_value, _localPe);
    clock.advanceTo(remote_done + transit + _config.swapFixedCycles);
    T3D_TRACE(_trace,
              span(_localPe, "swap", t0, clock.now(), "dst", dst));
    return old_value;
}

std::uint64_t
RemoteEngine::fetchInc(PeId dst, unsigned reg)
{
    T3D_COUNT(_ctr, fetchIncRoundTrips);

    Clock &clock = _core.clock();
    const Cycles t0 = clock.now();
    const Cycles transit = _machine.transitCycles(_localPe, dst);
    RemoteMemoryPort &port = _machine.remoteMemory(dst);

    std::uint64_t old_value = 0;
    const Cycles remote_done =
        port.serviceFetchInc(clock.now() + transit, reg, old_value);
    clock.advanceTo(remote_done + transit + _config.fetchIncFixedCycles);
    T3D_TRACE(_trace,
              span(_localPe, "fetch_inc", t0, clock.now(), "dst", dst));
    return old_value;
}

void
RemoteEngine::sendMessage(PeId dst, const std::uint64_t words[4])
{
    T3D_COUNT(_ctr, msgSends);

    Clock &clock = _core.clock();
    const Cycles t0 = clock.now();
    clock.advance(_config.msgSendCycles);
    const Cycles arrive =
        clock.now() + _machine.transitCycles(_localPe, dst);
    _machine.remoteMemory(dst).serviceMessage(arrive, words);
    T3D_TRACE(_trace,
              span(_localPe, "msg_send", t0, clock.now(), "dst", dst));
}

} // namespace t3dsim::shell
