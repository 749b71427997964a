#include "alpha/core.hh"

#include <algorithm>

#include "alpha/address.hh"
#include "alpha/byte_ops.hh"
#include "sim/logging.hh"

namespace t3dsim::alpha
{

AlphaCore::AlphaCore(const CoreConfig &config, Clock &clock, Tlb &tlb,
                     DirectMappedCache &dcache, WriteBuffer &wb,
                     mem::DramController &dram, mem::Storage &storage,
                     DirectMappedCache *l2)
    : _config(config), _clock(clock), _tlb(tlb), _dcache(dcache), _wb(wb),
      _dram(dram), _storage(storage), _l2(l2)
{
}

void
AlphaCore::loadBytes(Addr va, void *dst, std::size_t len)
{
    _wb.commitUpTo(_clock.now());
    _clock.advance(_tlb.access(va));

    const Addr pa = paOfVa(va);
    if (_dcache.probe(pa)) {
        T3D_COUNT(_ctr, l1Hits);
        _clock.advance(_config.loadHitCycles);
        _dcache.read(pa, dst, len);
        return;
    }
    T3D_COUNT(_ctr, l1Misses);

    // A pending write-buffer entry for this line must reach memory
    // before the miss can be serviced; the load stalls on the drain.
    if (_wb.holdsLine(_clock.now(), pa)) {
        Cycles done = _wb.drainAll(_clock.now());
        _clock.advanceTo(done);
        _wb.commitUpTo(done);
    }

    const Addr line_pa = pa & ~(_dcache.lineBytes() - 1);
    const std::size_t line_bytes = _dcache.lineBytes();
    // Stack buffer: a heap allocation per miss dominates the host
    // profile. Lines are hardware-small.
    std::uint8_t line[256];
    T3D_ASSERT(line_bytes <= sizeof(line),
               "cache line larger than fill buffer");

    if (_l2 && _l2->probe(pa)) {
        _clock.advance(_config.l2HitCycles);
        _l2->read(line_pa, line, line_bytes);
    } else {
        // The annex index is consumed before memory: DRAM sees only
        // the 27-bit segment offset, so synonyms share bank state.
        auto access = _dram.access(_clock.now(), offsetOfPa(line_pa));
        _clock.advanceTo(access.complete);
        _storage.readBlock(offsetOfPa(line_pa), line, line_bytes);
        if (_l2)
            _l2->fill(line_pa, line);
    }

    _dcache.fill(line_pa, line);
    _dcache.read(pa, dst, len);
}

Addr
AlphaCore::storeIssue(Addr va, const void *src, std::size_t len)
{
    _wb.commitUpTo(_clock.now());
    _clock.advance(_tlb.access(va));

    const Addr pa = paOfVa(va);
    // Write-through, no write-allocate: update any cached copies
    // (the write buffer then takes the store).
    _dcache.updateIfPresent(pa, src, len);
    if (_l2)
        _l2->updateIfPresent(pa, src, len);
    return pa;
}

void
AlphaCore::storeBytes(Addr va, const void *src, std::size_t len)
{
    const Addr pa = storeIssue(va, src, len);
    // The tag is one-shot: it applies only to the store it was
    // latched for.
    _clock.advance(_wb.write(_clock.now(), pa, src, len, _storeTag));
    _storeTag = 0;
}

std::uint64_t
AlphaCore::loadU64(Addr va)
{
    T3D_FATAL_IF((va & 7) != 0, "unaligned LDQ: va=", va);
    std::uint64_t v = 0;
    loadBytes(va, &v, sizeof(v));
    return v;
}

std::uint32_t
AlphaCore::loadU32(Addr va)
{
    T3D_FATAL_IF((va & 3) != 0, "unaligned LDL: va=", va);
    std::uint32_t v = 0;
    loadBytes(va, &v, sizeof(v));
    return v;
}

void
AlphaCore::storeU64(Addr va, std::uint64_t value)
{
    T3D_FATAL_IF((va & 7) != 0, "unaligned STQ: va=", va);
    storeBytes(va, &value, sizeof(value));
}

void
AlphaCore::storeU32(Addr va, std::uint32_t value)
{
    T3D_FATAL_IF((va & 3) != 0, "unaligned STL: va=", va);
    storeBytes(va, &value, sizeof(value));
}

void
AlphaCore::storeU64Mb(Addr va, std::uint64_t value)
{
    T3D_FATAL_IF((va & 7) != 0, "unaligned STQ: va=", va);
    const Addr pa = storeIssue(va, &value, sizeof(value));
    const std::uint32_t tag = _storeTag;
    _storeTag = 0;
    if (_wb.occupancy(_clock.now()) != 0) {
        _clock.advance(
            _wb.write(_clock.now(), pa, &value, sizeof(value), tag));
        mb();
        return;
    }
    // Empty buffer: the store is accepted without a stall and the MB
    // finds its line the only one pending.
    const Cycles done =
        _wb.writeThrough(_clock.now(), pa, &value, sizeof(value), tag);
    _clock.advance(_wb.config().issueCycles + _config.mbCycles);
    _clock.syncTo(done);
}

std::uint8_t
AlphaCore::loadU8(Addr va)
{
    const Addr aligned = va & ~Addr{7};
    std::uint64_t word = loadU64(aligned);
    chargeRegOps(1); // EXTBL
    return static_cast<std::uint8_t>(
        extbl(word, static_cast<unsigned>(va & 7)));
}

void
AlphaCore::storeU8(Addr va, std::uint8_t value)
{
    // The 21064 has no byte stores: read-modify-write the containing
    // quadword. NOT atomic (§4.5).
    const Addr aligned = va & ~Addr{7};
    std::uint64_t word = loadU64(aligned);
    chargeRegOps(2); // MSKBL + INSBL
    word = mergeByte(word, static_cast<unsigned>(va & 7), value);
    storeU64(aligned, word);
}

void
AlphaCore::mb()
{
    Cycles done = _wb.drainAll(_clock.now());
    _clock.advance(_config.mbCycles);
    _clock.syncTo(done);
    _wb.commitUpTo(_clock.now());
}

void
AlphaCore::flushLine(Addr va)
{
    const Addr pa = paOfVa(va);
    _dcache.invalidate(pa);
    _clock.advance(_config.flushLineCycles);
}

void
AlphaCore::flushAll()
{
    _dcache.invalidateAll();
    _clock.advance(_config.flushAllCycles);
}

std::uint64_t
AlphaCore::peekU64(Addr va) const
{
    const Addr pa = paOfVa(va);
    std::uint64_t v = 0;
    if (_dcache.probe(pa)) {
        _dcache.read(pa, &v, sizeof(v));
        return v;
    }
    v = _storage.readU64(offsetOfPa(pa));
    // Overlay pending write-buffer bytes (the core's own view).
    auto &wb = const_cast<WriteBuffer &>(_wb);
    wb.forward(_clock.now(), pa, &v, sizeof(v));
    return v;
}

void
AlphaCore::pokeU64(Addr va, std::uint64_t value)
{
    const Addr pa = paOfVa(va);
    _storage.writeU64(offsetOfPa(pa), value);
    _dcache.updateIfPresent(pa, &value, sizeof(value));
    if (_l2)
        _l2->updateIfPresent(pa, &value, sizeof(value));
}

} // namespace t3dsim::alpha
