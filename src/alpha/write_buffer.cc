#include "alpha/write_buffer.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sim/logging.hh"

namespace t3dsim::alpha
{

namespace
{

/** Byte mask of [off, off+len) within a line; 64-bit so that
 *  len == wbLineBytes is defined. */
std::uint32_t
lineMask(std::size_t off, std::size_t len)
{
    return static_cast<std::uint32_t>(((std::uint64_t{1} << len) - 1)
                                      << off);
}

} // namespace

WriteBuffer::WriteBuffer(const Config &config, DrainPort &port)
    : _config(config), _port(port)
{
    T3D_ASSERT(_config.entries > 0, "write buffer needs entries");
}

void
WriteBuffer::issueSlot(Slot &slot, Cycles ready)
{
    T3D_ASSERT(!slot.scheduled, "double issue of write-buffer slot");
    auto result = _port.drainLine(ready, slot.lineAddr,
                                  slot.data.data(), slot.mask,
                                  slot.tag);
    slot.scheduled = true;
    slot.completion = result.completion;
    slot.deferCommit = result.deferCommit;
    --_unscheduled;
}

void
WriteBuffer::issueDue(Cycles now)
{
    if (_unscheduled == 0 || now < _earliestDue)
        return;
    Cycles next = std::numeric_limits<Cycles>::max();
    for (auto &slot : _slots) {
        if (slot.scheduled)
            continue;
        const Cycles due = slot.accept + _config.holdoffCycles;
        if (due <= now)
            issueSlot(slot, due);
        else
            next = std::min(next, due);
    }
    _earliestDue = next;
}

void
WriteBuffer::retireCompleted(Cycles now)
{
    while (!_slots.empty()) {
        Slot &front = _slots.front();
        if (!front.scheduled || front.completion > now)
            break;
        if (front.deferCommit)
            _port.commitLine(front.lineAddr, front.data.data(), front.mask);
        T3D_COUNT(_ctr, wbRetires);
        _slots.pop_front();
    }
}

Cycles
WriteBuffer::write(Cycles now, Addr pa, const void *src, std::size_t len,
                   std::uint32_t tag)
{
    const Addr line = pa & ~(Addr{wbLineBytes} - 1);
    const std::size_t off = pa - line;
    T3D_ASSERT(off + len <= wbLineBytes, "store crosses a line boundary");

    commitUpTo(now);

    // Write-merging: coalesce into a pending same-line entry that has
    // not yet issued to memory.
    for (auto &slot : _slots) {
        if (!slot.scheduled && slot.lineAddr == line &&
            slot.tag == tag) {
            std::memcpy(slot.data.data() + off, src, len);
            slot.mask |= lineMask(off, len);
            T3D_COUNT(_ctr, wbMerges);
            return _config.issueCycles;
        }
    }

    // Need a fresh slot; stall while the buffer is full. Entries
    // retire in FIFO order, so the stall lasts until the oldest
    // entry's drain completes.
    Cycles when = now;
    while (_slots.size() >= _config.entries) {
        // Full-buffer pressure forces every pending entry to memory.
        for (auto &slot : _slots) {
            if (!slot.scheduled)
                issueSlot(slot, when);
        }
        when = std::max(when, _slots.front().completion);
        retireCompleted(when);
    }
    if (when != now) {
        T3D_COUNT(_ctr, wbStalls);
        T3D_COUNT_ADD(_ctr, wbStallCycles, when - now);
    }

    Slot &slot = _slots.emplace_back(line, tag, lineMask(off, len), when);
    std::memcpy(slot.data.data() + off, src, len);
    const Cycles due = when + _config.holdoffCycles;
    _earliestDue = _unscheduled == 0 ? due : std::min(_earliestDue, due);
    ++_unscheduled;

    return (when - now) + _config.issueCycles;
}

Cycles
WriteBuffer::writeThrough(Cycles now, Addr pa, const void *src,
                          std::size_t len, std::uint32_t tag)
{
    T3D_ASSERT(_slots.empty(), "write-through into a non-empty buffer");
    const Addr line = pa & ~(Addr{wbLineBytes} - 1);
    const std::size_t off = pa - line;
    T3D_ASSERT(off + len <= wbLineBytes, "store crosses a line boundary");

    std::array<std::uint8_t, wbLineBytes> data{};
    std::memcpy(data.data() + off, src, len);
    const std::uint32_t mask = lineMask(off, len);
    const Cycles ready = now + std::min(_config.issueCycles,
                                        _config.holdoffCycles);
    const DrainPort::DrainResult result =
        _port.drainLine(ready, line, data.data(), mask, tag);
    if (result.deferCommit)
        _port.commitLine(line, data.data(), mask);
    T3D_COUNT(_ctr, wbRetires);
    return result.completion;
}

bool
WriteBuffer::forward(Cycles now, Addr pa, void *buf, std::size_t len)
{
    commitUpTo(now);
    auto *out = static_cast<std::uint8_t *>(buf);
    bool any = false;
    // Oldest-to-newest so newer pending bytes win.
    for (const auto &slot : _slots) {
        for (std::size_t i = 0; i < len; ++i) {
            Addr byte_addr = pa + i;
            if ((byte_addr & ~(Addr{wbLineBytes} - 1)) != slot.lineAddr)
                continue;
            std::size_t off = byte_addr - slot.lineAddr;
            if (slot.mask & (1u << off)) {
                out[i] = slot.data[off];
                any = true;
            }
        }
    }
    return any;
}

bool
WriteBuffer::holdsLine(Cycles now, Addr pa)
{
    commitUpTo(now);
    const Addr line = pa & ~(Addr{wbLineBytes} - 1);
    for (const auto &slot : _slots) {
        if (slot.lineAddr == line)
            return true;
    }
    return false;
}

Cycles
WriteBuffer::drainAll(Cycles now)
{
    commitUpTo(now);
    Cycles done = now;
    for (auto &slot : _slots) {
        if (!slot.scheduled)
            issueSlot(slot, now);
        done = std::max(done, slot.completion);
    }
    return done;
}

unsigned
WriteBuffer::occupancy(Cycles now)
{
    commitUpTo(now);
    return static_cast<unsigned>(_slots.size());
}

} // namespace t3dsim::alpha
