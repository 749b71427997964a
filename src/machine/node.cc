#include "machine/node.hh"

#include <algorithm>
#include <bit>

#include "alpha/byte_ops.hh"
#include "sim/logging.hh"

namespace t3dsim::machine
{

using alpha::annexIdxOfPa;
using alpha::offsetOfPa;
using alpha::paOfVa;
using alpha::vaIsAnnexed;

Node::Node(const MachineConfig &config, PeId pe,
           shell::MachinePort &machine)
    : _config(config), _pe(pe), _machine(machine),
      _storage(alpha::segBytes, config.resolvedStorageChunkShift()),
      _dram(config.dram), _tlb(config.tlb),
      _dcache(config.dcacheBytes, config.dcacheLineBytes),
      _wb(config.writeBuffer, *this),
      _core(config.core, _clock, _tlb, _dcache, _wb, _dram, _storage),
      _shell(config.shell, pe, machine, _core),
      _channels(machine.numPes())
{
}

Node::~Node() = default;

Node::ChannelTable::ChannelTable(std::uint32_t num_pes)
    : _dense(num_pes <= densePes ? num_pes : 0)
{
}

std::size_t
Node::ChannelTable::probe(std::uint32_t key) const
{
    std::size_t i = slotOf(key, _hashShift);
    while (_sparse[i].key != 0 && _sparse[i].key != key)
        i = (i + 1) & (_sparse.size() - 1);
    return i;
}

Node::RequesterChannel *
Node::ChannelTable::findSparse(PeId requester) const
{
    if (_sparse.empty())
        return nullptr;
    return _sparse[probe(requester + 1)].chan.get();
}

void
Node::ChannelTable::grow(std::size_t capacity)
{
    std::vector<Entry> old = std::move(_sparse);
    _sparse = std::vector<Entry>(capacity);
    _hashShift = 64u - static_cast<unsigned>(std::countr_zero(capacity));
    for (Entry &entry : old) {
        if (entry.key != 0)
            _sparse[probe(entry.key)] = std::move(entry);
    }
}

Node::RequesterChannel &
Node::ChannelTable::create(PeId requester, const mem::DramConfig &config,
                           probes::PerfCounters *ctr)
{
    std::unique_ptr<RequesterChannel> *slot;
    if (!_dense.empty()) {
        slot = &_dense[requester];
    } else {
        if ((_count + 1) * 4 > _sparse.size() * 3)
            grow(_sparse.empty() ? 16 : _sparse.size() * 2);
        Entry &entry = _sparse[probe(requester + 1)];
        entry.key = requester + 1;
        slot = &entry.chan;
    }
    *slot = std::make_unique<RequesterChannel>(config);
    if (ctr)
        (*slot)->dram.setCounters(ctr);
    ++_count;
    return **slot;
}

std::size_t
Node::ChannelTable::residentBytes() const
{
    return sizeof(ChannelTable) + _dense.capacity() * sizeof(_dense[0]) +
           _sparse.capacity() * sizeof(Entry) +
           _count * sizeof(RequesterChannel);
}

Addr
Node::alloc(std::size_t bytes, std::size_t align)
{
    T3D_FATAL_IF(align == 0 || (align & (align - 1)) != 0,
                 "alignment must be a power of two");
    _allocNext = (_allocNext + align - 1) & ~(Addr{align} - 1);
    Addr result = _allocNext;
    _allocNext += bytes;
    T3D_FATAL_IF(_allocNext > alpha::segBytes,
                 "node ", _pe, " out of local memory");
    return result;
}

std::uint64_t
Node::loadU64(Addr va)
{
    if (!vaIsAnnexed(va))
        return _core.loadU64(va);

    const Addr pa = paOfVa(va);
    const auto &entry = _shell.annex().get(annexIdxOfPa(pa));
    if (entry.pe == _pe) {
        // Local (possibly synonym) path: ordinary cache/WB/DRAM.
        return _core.loadU64(va);
    }
    if (entry.readMode == shell::ReadMode::Cached && _dcache.probe(pa)) {
        // A previously cached remote line: local hit, no network.
        return _core.loadU64(va);
    }
    // Address translation happens before the request reaches the
    // shell: annexed accesses consume TLB reach too (§3.4).
    _core.charge(_tlb.access(va));
    return _shell.remote().read(entry.pe, offsetOfPa(pa), pa,
                                entry.readMode);
}

std::uint32_t
Node::loadU32(Addr va)
{
    T3D_FATAL_IF((va & 3) != 0, "unaligned LDL: va=", va);
    if (!vaIsAnnexed(va))
        return _core.loadU32(va);
    // Remote LDL: same round trip as a quadword; extract the word.
    const std::uint64_t q = loadU64(va & ~Addr{7});
    return static_cast<std::uint32_t>((va & 4) ? (q >> 32) : q);
}

std::uint8_t
Node::loadU8(Addr va)
{
    if (!vaIsAnnexed(va))
        return _core.loadU8(va);
    const std::uint64_t q = loadU64(va & ~Addr{7});
    _core.chargeRegOps(1); // EXTBL
    return static_cast<std::uint8_t>(
        alpha::extbl(q, static_cast<unsigned>(va & 7)));
}

PeId
Node::latchStoreTarget(Addr va)
{
    const Addr pa = paOfVa(va);
    const PeId dst = _shell.annex().peOf(annexIdxOfPa(pa));
    // Tag encoding: 0 = local, otherwise destination PE + 1 (so that
    // PE 0 is representable as a remote target).
    _core.setStoreTag(dst == _pe ? 0 : dst + 1);
    return dst;
}

void
Node::storeU64(Addr va, std::uint64_t value)
{
    if (vaIsAnnexed(va))
        latchStoreTarget(va);
    _core.storeU64(va, value);
}

void
Node::storeU64Mb(Addr va, std::uint64_t value)
{
    if (vaIsAnnexed(va))
        latchStoreTarget(va);
    _core.storeU64Mb(va, value);
}

void
Node::storeU32(Addr va, std::uint32_t value)
{
    if (vaIsAnnexed(va))
        latchStoreTarget(va);
    _core.storeU32(va, value);
}

void
Node::storeU8(Addr va, std::uint8_t value)
{
    if (!vaIsAnnexed(va)) {
        _core.storeU8(va, value);
        return;
    }
    const Addr pa = paOfVa(va);
    const auto &entry = _shell.annex().get(annexIdxOfPa(pa));
    if (entry.pe == _pe) {
        _core.storeU8(va, value);
        return;
    }
    // No byte stores on the Alpha: remote byte write is a remote
    // read-modify-write of the containing quadword — NOT atomic
    // against other writers of the same word (§4.5).
    const Addr aligned = va & ~Addr{7};
    std::uint64_t word = loadU64(aligned);
    _core.chargeRegOps(2); // MSKBL + INSBL
    word = alpha::mergeByte(word, static_cast<unsigned>(va & 7), value);
    storeU64(aligned, word);
}

void
Node::fetchHint(Addr va)
{
    const Addr pa = paOfVa(va);
    const auto &entry = _shell.annex().get(annexIdxOfPa(pa));
    _core.charge(_tlb.access(va));
    _shell.prefetch().issue(entry.pe, offsetOfPa(pa));
}

void
Node::waitRemoteWrites()
{
    // The status bit does not cover writes still sitting in the
    // write buffer (§4.3): MB first.
    _core.mb();
    _shell.remote().pollUntilQuiet();
}

std::uint64_t
Node::swap(Addr va, std::uint64_t new_value)
{
    const Addr pa = paOfVa(va);
    const auto &entry = _shell.annex().get(annexIdxOfPa(pa));
    const auto &cfg = _shell.config();
    if (entry.pe == _pe) {
        std::uint64_t old_value = 0;
        const Cycles done = serviceSwap(_clock.now(), offsetOfPa(pa),
                                        new_value, old_value, _pe);
        _clock.advanceTo(done + cfg.swapFixedCycles);
        return old_value;
    }
    return _shell.remote().swap(entry.pe, offsetOfPa(pa), new_value);
}

Node::RequesterChannel &
Node::channelFor(PeId requester)
{
    RequesterChannel *ch = _channels.find(requester);
    if (!ch) [[unlikely]] {
        // Remote requesters' accesses are events of this memory, so
        // the new channel inherits this node's counter record.
        ch = &_channels.create(requester, _config.dram,
                               countersIfEnabled());
    }
    return *ch;
}

probes::PerfCounters &
Node::counters()
{
    if (!_counters)
        _counters = std::make_unique<probes::PerfCounters>();
    return *_counters;
}

const probes::PerfCounters &
Node::counters() const
{
    static const probes::PerfCounters zero{};
    return _counters ? *_counters : zero;
}

void
Node::enableObservability(bool counters_on, probes::TraceSink *trace)
{
    _countersOn = counters_on;
    if (counters_on)
        counters(); // materialize for countersIfEnabled()
    probes::PerfCounters *ctr = countersIfEnabled();
    _core.setCounters(ctr);
    _tlb.setCounters(ctr);
    _wb.setCounters(ctr);
    _dram.setCounters(ctr);
    _channels.forEach(
        [ctr](RequesterChannel &ch) { ch.dram.setCounters(ctr); });
    _shell.setObservability(ctr, trace);
}

std::size_t
Node::residentModelBytes() const
{
    std::size_t bytes = sizeof(Node);
    bytes += _storage.residentBytes() - sizeof(mem::Storage);
    bytes += _dcache.residentBytes() - sizeof(alpha::DirectMappedCache);
    bytes += _tlb.residentBytes() - sizeof(alpha::Tlb);
    bytes += _channels.residentBytes() - sizeof(ChannelTable);
    bytes += _storeArrivals.residentBytes() - sizeof(ArrivalLog);
    bytes += _amArrivals.residentBytes() - sizeof(ArrivalLog);
    if (_counters)
        bytes += sizeof(probes::PerfCounters);
    return bytes;
}

Cycles
Node::serviceRead(Cycles arrive, Addr offset, void *dst, std::size_t len,
                  PeId requester)
{
    auto access = channelFor(requester).dram.access(arrive, offset);
    _storage.readBlock(offset, dst, len);
    const Cycles extra = access.offPage
        ? _config.shell.remoteOffPageExtraCycles : Cycles{0};
    return access.complete + extra;
}

Cycles
Node::serviceWrite(Cycles arrive, Addr offset, const void *src,
                   std::size_t len, bool cache_inval, PeId requester)
{
    RequesterChannel &channel = channelFor(requester);
    const Cycles start = std::max(arrive, channel.writePortFree);
    auto access = channel.dram.access(start, offset);
    channel.writePortFree = access.offPage
        ? access.complete
        : access.start + _config.dram.pipelinedBusyCycles;
    _storage.writeBlock(offset, src, len);
    if (cache_inval) {
        const std::uint64_t line = _dcache.lineBytes();
        for (Addr a = offset & ~(line - 1); a < offset + len; a += line)
            _dcache.invalidate(a);
    }
    const Cycles extra = access.offPage
        ? _config.shell.remoteOffPageExtraCycles : Cycles{0};
    return access.complete + extra;
}

Cycles
Node::serviceWriteMasked(Cycles arrive, Addr line_offset,
                         const std::uint8_t *data,
                         std::uint32_t byte_mask, bool cache_inval,
                         PeId requester)
{
    RequesterChannel &channel = channelFor(requester);
    const Cycles start = std::max(arrive, channel.writePortFree);
    auto access = channel.dram.access(start, line_offset);
    channel.writePortFree = access.offPage
        ? access.complete
        : access.start + _config.dram.pipelinedBusyCycles;
    _storage.writeMasked(line_offset, data, byte_mask,
                         alpha::wbLineBytes);
    if (cache_inval)
        _dcache.invalidate(line_offset);
    const Cycles extra = access.offPage
        ? _config.shell.remoteOffPageExtraCycles : Cycles{0};
    return access.complete + extra;
}

Cycles
Node::serviceSwap(Cycles arrive, Addr offset, std::uint64_t new_value,
                  std::uint64_t &old_value, PeId requester)
{
    auto access = channelFor(requester).dram.access(arrive, offset);
    old_value = _storage.readU64(offset);
    _storage.writeU64(offset, new_value);
    _dcache.invalidate(offset);
    return access.complete;
}

Cycles
Node::serviceFetchInc(Cycles arrive, unsigned reg,
                      std::uint64_t &old_value)
{
    // Shell registers: no DRAM involvement.
    old_value = _shell.fetchIncRegs().fetchInc(reg);
    return arrive + shell::FetchIncRegisters::serviceCycles;
}

void
Node::serviceMessage(Cycles arrive, const std::uint64_t words[4])
{
    _shell.messages().deliver(arrive, words);
}

void
Node::setWakeupHooks(std::function<void()> on_store_arrival,
                     std::function<void()> on_am_arrival,
                     std::function<void()> on_message)
{
    _storeArrivals.setRecordListener(std::move(on_store_arrival));
    _amArrivals.setRecordListener(std::move(on_am_arrival));
    _shell.messages().setDeliveryListener(std::move(on_message));
}

void
Node::clearWakeupHooks()
{
    _storeArrivals.clearRecordListener();
    _amArrivals.clearRecordListener();
    _shell.messages().clearDeliveryListener();
}

void
Node::bulkReadRaw(Addr offset, void *dst, std::size_t len)
{
    _storage.readBlock(offset, dst, len);
}

void
Node::bulkWriteRaw(Addr offset, const void *src, std::size_t len)
{
    _storage.writeBlock(offset, src, len);
    const std::uint64_t line = _dcache.lineBytes();
    for (Addr a = offset & ~(line - 1); a < offset + len; a += line)
        _dcache.invalidate(a);
}

alpha::DrainPort::DrainResult
Node::drainLine(Cycles ready, Addr pa, const std::uint8_t *data,
                std::uint32_t byte_mask, std::uint32_t tag)
{
    // The tag carries the annex-resolved destination latched when
    // the store issued; 0 means local (including local synonyms),
    // otherwise the destination PE + 1.
    const PeId dst = tag == 0 ? _pe : static_cast<PeId>(tag - 1);

    if (dst == _pe) {
        // Local line (plain or synonym): DRAM timing, deferred
        // commit so the pending data stays invisible to loads that
        // miss the buffer's physical-address match (§3.4).
        auto access = _dram.access(ready, offsetOfPa(pa));
        return {access.complete, /*deferCommit=*/true};
    }

    const Cycles injected = _shell.remote().injectWriteLine(
        ready, dst, offsetOfPa(pa), data, byte_mask);
    return {injected, /*deferCommit=*/false};
}

void
Node::commitLine(Addr pa, const std::uint8_t *data,
                 std::uint32_t byte_mask)
{
    const Addr offset = offsetOfPa(pa);
    _storage.writeMasked(offset, data, byte_mask, alpha::wbLineBytes);
}

} // namespace t3dsim::machine
