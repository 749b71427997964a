#include "shell/blt.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/logging.hh"

namespace t3dsim::shell
{

namespace
{

/** A staging buffer of at least @p bytes, reused by every transfer
 *  on this host thread (JobService workers each run a machine). */
std::uint8_t *
stagingBuffer(std::size_t bytes)
{
    thread_local std::vector<std::uint8_t> buf;
    if (buf.size() < bytes)
        buf.resize(bytes);
    return buf.data();
}

} // namespace

BlockTransferEngine::BlockTransferEngine(const ShellConfig &config,
                                         PeId local_pe,
                                         MachinePort &machine,
                                         alpha::AlphaCore &core)
    : _config(config), _localPe(local_pe), _machine(machine), _core(core)
{
}

Cycles
BlockTransferEngine::invoke()
{
    T3D_COUNT(_ctr, bltTransfers);
    const Cycles t0 = _core.clock().now();
    // The OS call serializes the processor: pending stores drain and
    // the full startup overhead is charged.
    _core.mb();

    // One engine per node (§6.2): if it is still streaming the
    // allowed number of transfers, the OS call blocks until the
    // earliest outstanding one completes.
    while (!_outstanding.empty() &&
           _outstanding.front() <= _core.clock().now()) {
        _outstanding.pop_front();
    }
    if (_config.bltMaxInFlight > 0 &&
        _outstanding.size() >= _config.bltMaxInFlight) {
        T3D_COUNT(_ctr, bltEngineStalls);
        const Cycles free_at = _outstanding.front();
        T3D_TRACE(_trace, span(_localPe, "blt_engine_stall",
                               _core.clock().now(), free_at));
        _core.clock().syncTo(free_at);
        _outstanding.pop_front();
    }

    _core.charge(_config.bltStartupCycles);
    T3D_COUNT_ADD(_ctr, bltSetupCycles, _core.clock().now() - t0);
    T3D_TRACE(_trace,
              span(_localPe, "blt_setup", t0, _core.clock().now()));
    return _core.clock().now();
}

void
BlockTransferEngine::noteTransfer(const char *name, Cycles start)
{
    auto pos = std::lower_bound(_outstanding.begin(), _outstanding.end(),
                                _lastCompletion);
    _outstanding.insert(pos, _lastCompletion);
    T3D_COUNT_ADD(_ctr, bltTransferCycles, _lastCompletion - start);
    T3D_TRACE(_trace, span(_localPe, name, start, _lastCompletion));
}

Cycles
BlockTransferEngine::streamCycles(std::size_t len, bool is_read) const
{
    const double per_byte = is_read ? _config.bltReadCyclesPerByte
                                    : _config.bltWriteCyclesPerByte;
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(len) * per_byte));
}

Cycles
BlockTransferEngine::startRead(PeId src, Addr remote_offset,
                               Addr local_offset, std::size_t len)
{
    const Cycles start = invoke();
    const Cycles transit = _machine.transitCycles(_localPe, src);

    std::uint8_t *buf = stagingBuffer(len);
    if (src == _localPe)
        _core.storage().readBlock(remote_offset, buf, len);
    else
        _machine.remoteMemory(src).bulkReadRaw(remote_offset, buf, len);
    _core.storage().writeBlock(local_offset, buf, len);

    // DMA into local memory: any cached copies of the destination
    // are invalidated (the engine is not coherent with the cache).
    const std::uint64_t line = _core.dcache().lineBytes();
    for (Addr a = local_offset & ~(line - 1); a < local_offset + len;
         a += line) {
        _core.dcache().invalidate(a);
    }

    _lastCompletion = start + transit + streamCycles(len, true);
    noteTransfer("blt_read", start);
    return _lastCompletion;
}

Cycles
BlockTransferEngine::startWrite(PeId dst, Addr remote_offset,
                                Addr local_offset, std::size_t len)
{
    const Cycles start = invoke();
    const Cycles transit = _machine.transitCycles(_localPe, dst);

    std::uint8_t *buf = stagingBuffer(len);
    _core.storage().readBlock(local_offset, buf, len);
    if (dst == _localPe)
        _core.storage().writeBlock(remote_offset, buf, len);
    else
        _machine.remoteMemory(dst).bulkWriteRaw(remote_offset, buf, len);

    _lastCompletion = start + transit + streamCycles(len, false);
    noteTransfer("blt_write", start);
    return _lastCompletion;
}

Cycles
BlockTransferEngine::startStridedRead(PeId src, Addr remote_offset,
                                      std::size_t remote_stride,
                                      Addr local_offset,
                                      std::size_t local_stride,
                                      std::size_t elem_bytes,
                                      std::size_t count)
{
    const Cycles start = invoke();
    const Cycles transit = _machine.transitCycles(_localPe, src);

    std::uint8_t *elem = stagingBuffer(elem_bytes);
    for (std::size_t i = 0; i < count; ++i) {
        const Addr roff = remote_offset + i * remote_stride;
        const Addr loff = local_offset + i * local_stride;
        if (src == _localPe)
            _core.storage().readBlock(roff, elem, elem_bytes);
        else
            _machine.remoteMemory(src).bulkReadRaw(roff, elem,
                                                   elem_bytes);
        _core.storage().writeBlock(loff, elem, elem_bytes);
        _core.dcache().invalidate(loff);
    }

    _lastCompletion = start + transit +
        streamCycles(count * elem_bytes, true) +
        Cycles{count} * _config.bltStridedElemCycles;
    noteTransfer("blt_read", start);
    return _lastCompletion;
}

Cycles
BlockTransferEngine::startStridedWrite(PeId dst, Addr remote_offset,
                                       std::size_t remote_stride,
                                       Addr local_offset,
                                       std::size_t local_stride,
                                       std::size_t elem_bytes,
                                       std::size_t count)
{
    const Cycles start = invoke();
    const Cycles transit = _machine.transitCycles(_localPe, dst);

    std::uint8_t *elem = stagingBuffer(elem_bytes);
    for (std::size_t i = 0; i < count; ++i) {
        const Addr roff = remote_offset + i * remote_stride;
        const Addr loff = local_offset + i * local_stride;
        _core.storage().readBlock(loff, elem, elem_bytes);
        if (dst == _localPe)
            _core.storage().writeBlock(roff, elem, elem_bytes);
        else
            _machine.remoteMemory(dst).bulkWriteRaw(roff, elem,
                                                    elem_bytes);
    }

    _lastCompletion = start + transit +
        streamCycles(count * elem_bytes, false) +
        Cycles{count} * _config.bltStridedElemCycles;
    noteTransfer("blt_write", start);
    return _lastCompletion;
}

void
BlockTransferEngine::wait(Cycles completion)
{
    _core.clock().syncTo(completion);
}

} // namespace t3dsim::shell
