#include "mem/storage.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace t3dsim::mem
{

Storage::Storage(Addr limit, unsigned chunk_shift)
    : _limit(limit),
      _chunkShift(std::clamp(chunk_shift, minChunkShift, maxChunkShift)),
      _chunkSize(std::size_t{1} << _chunkShift),
      _chunkMask(_chunkSize - 1),
      _groups((((limit + _chunkSize - 1) >> _chunkShift) + groupSlots - 1)
              >> groupShift)
{
}

Storage::~Storage() { destroyChunks(); }

void
Storage::destroyChunks()
{
    for (Group *g : _groups) {
        if (!g)
            continue;
        for (std::uint8_t *chunk : g->slots)
            delete[] chunk;
        delete g;
    }
}

void
Storage::checkRange(Addr addr, std::size_t len) const
{
    T3D_FATAL_IF(addr + len > _limit || addr + len < addr,
                 "storage access out of range: addr=", addr, " len=", len,
                 " limit=", _limit);
}

std::uint8_t *
Storage::chunkFor(Addr addr)
{
    const Addr key = addr >> _chunkShift;
    if (key == _cachedKey)
        return _cachedChunk;
    Group *&g = _groups[key >> groupShift];
    if (!g) {
        g = new Group();
        ++_groupsAllocated;
    }
    std::uint8_t *&chunk = g->slots[key & (groupSlots - 1)];
    if (!chunk) {
        chunk = new std::uint8_t[_chunkSize]();
        ++_chunksAllocated;
    }
    _cachedKey = key;
    _cachedChunk = chunk;
    return chunk;
}

const std::uint8_t *
Storage::chunkIfPresent(Addr addr) const
{
    const Addr key = addr >> _chunkShift;
    if (key == _cachedKey)
        return _cachedChunk;
    std::uint8_t *chunk = chunkAt(key);
    if (!chunk)
        return nullptr;
    _cachedKey = key;
    _cachedChunk = chunk;
    return chunk;
}

std::size_t
Storage::residentBytes() const
{
    return sizeof(Storage) + _groups.capacity() * sizeof(_groups[0]) +
           _groupsAllocated * sizeof(Group) +
           _chunksAllocated * _chunkSize;
}

std::uint8_t
Storage::readU8(Addr addr) const
{
    checkRange(addr, 1);
    const std::uint8_t *chunk = chunkIfPresent(addr);
    return chunk ? chunk[addr & _chunkMask] : 0;
}

void
Storage::writeU8(Addr addr, std::uint8_t value)
{
    checkRange(addr, 1);
    chunkFor(addr)[addr & _chunkMask] = value;
}

std::uint32_t
Storage::readU32(Addr addr) const
{
    checkRange(addr, sizeof(std::uint32_t));
    const std::size_t off = addr & _chunkMask;
    if (off + sizeof(std::uint32_t) <= _chunkSize) [[likely]] {
        const std::uint8_t *chunk = chunkIfPresent(addr);
        if (!chunk)
            return 0;
        std::uint32_t v;
        std::memcpy(&v, chunk + off, sizeof(v));
        return v;
    }
    std::uint32_t v = 0;
    readBlock(addr, &v, sizeof(v));
    return v;
}

void
Storage::writeU32(Addr addr, std::uint32_t value)
{
    checkRange(addr, sizeof(value));
    const std::size_t off = addr & _chunkMask;
    if (off + sizeof(value) <= _chunkSize) [[likely]] {
        std::memcpy(chunkFor(addr) + off, &value, sizeof(value));
        return;
    }
    writeBlock(addr, &value, sizeof(value));
}

std::uint64_t
Storage::readU64(Addr addr) const
{
    checkRange(addr, sizeof(std::uint64_t));
    const std::size_t off = addr & _chunkMask;
    if (off + sizeof(std::uint64_t) <= _chunkSize) [[likely]] {
        const std::uint8_t *chunk = chunkIfPresent(addr);
        if (!chunk)
            return 0;
        std::uint64_t v;
        std::memcpy(&v, chunk + off, sizeof(v));
        return v;
    }
    std::uint64_t v = 0;
    readBlock(addr, &v, sizeof(v));
    return v;
}

void
Storage::writeU64(Addr addr, std::uint64_t value)
{
    checkRange(addr, sizeof(value));
    const std::size_t off = addr & _chunkMask;
    if (off + sizeof(value) <= _chunkSize) [[likely]] {
        std::memcpy(chunkFor(addr) + off, &value, sizeof(value));
        return;
    }
    writeBlock(addr, &value, sizeof(value));
}

void
Storage::readBlock(Addr addr, void *dst, std::size_t len) const
{
    checkRange(addr, len);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        std::size_t off = addr & _chunkMask;
        std::size_t take = std::min(len, _chunkSize - off);
        const std::uint8_t *chunk = chunkIfPresent(addr);
        if (chunk)
            std::memcpy(out, chunk + off, take);
        else
            std::memset(out, 0, take);
        out += take;
        addr += take;
        len -= take;
    }
}

const std::uint8_t *
Storage::peekSpan(Addr addr, std::size_t max_len, std::size_t &span) const
{
    checkRange(addr, max_len ? 1 : 0);
    const std::size_t off = addr & _chunkMask;
    span = std::min(max_len, _chunkSize - off);
    const std::uint8_t *chunk = chunkAt(addr >> _chunkShift);
    return chunk ? chunk + off : nullptr;
}

void
Storage::writeBlock(Addr addr, const void *src, std::size_t len)
{
    checkRange(addr, len);
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        std::size_t off = addr & _chunkMask;
        std::size_t take = std::min(len, _chunkSize - off);
        std::memcpy(chunkFor(addr) + off, in, take);
        in += take;
        addr += take;
        len -= take;
    }
}

namespace
{

/** Expand the 8 bits of @p bits to byte lanes: byte k of the result
 *  is 0xff iff bit k is set. */
constexpr std::uint64_t
byteLanes(std::uint64_t bits)
{
    // Byte k of the product keeps only bit k of @p bits; adding 0x7f
    // per byte carries into the byte's top bit iff that bit was set.
    const std::uint64_t picked =
        (bits * 0x0101010101010101ull) & 0x8040201008040201ull;
    const std::uint64_t tops =
        (picked + 0x7f7f7f7f7f7f7f7full) & 0x8080808080808080ull;
    return (tops >> 7) * 0xff;
}

static_assert(byteLanes(0x00) == 0);
static_assert(byteLanes(0xff) == ~std::uint64_t{0});
static_assert(byteLanes(0x81) == 0xff000000000000ffull);
static_assert(byteLanes(0x5a) == 0x00ff00ffff00ff00ull);

} // namespace

void
Storage::writeMasked(Addr addr, const std::uint8_t *data,
                     std::uint64_t mask, std::size_t len)
{
    checkRange(addr, len);
    T3D_ASSERT(len <= 64, "writeMasked mask covers at most 64 bytes");
    if (len < 64)
        mask &= (std::uint64_t{1} << len) - 1;
    if (!mask)
        return;
    const std::size_t first = addr & _chunkMask;
    if (((addr | len) & 7) == 0 && first + len <= _chunkSize) [[likely]] {
        // Word path (every write-buffer line): one 8-byte blend per
        // word that has any mask bit, none for a word that has none.
        std::uint8_t *dst = chunkFor(addr) + first;
        for (std::size_t w = 0; w < len; w += 8) {
            const std::uint64_t bits = (mask >> w) & 0xff;
            if (!bits)
                continue;
            std::uint64_t in;
            std::memcpy(&in, data + w, sizeof(in));
            if (bits != 0xff) {
                const std::uint64_t lanes = byteLanes(bits);
                std::uint64_t old;
                std::memcpy(&old, dst + w, sizeof(old));
                in = (old & ~lanes) | (in & lanes);
            }
            std::memcpy(dst + w, &in, sizeof(in));
        }
        return;
    }
    std::size_t i = 0;
    while (i < len) {
        if (!(mask >> i)) // no set bits left
            return;
        const std::size_t off = (addr + i) & _chunkMask;
        const std::size_t take = std::min(len - i, _chunkSize - off);
        const std::uint64_t span_mask =
            take >= 64 ? ~std::uint64_t{0} >> (64 - len)
                       : ((std::uint64_t{1} << take) - 1) << i;
        std::uint8_t *base = chunkFor(addr + i) + off - i;
        if ((mask & span_mask) == span_mask) {
            // Full span: one copy.
            std::memcpy(base + i, data + i, take);
        } else {
            for (std::size_t b = i; b < i + take; ++b) {
                if (mask & (std::uint64_t{1} << b))
                    base[b] = data[b];
            }
        }
        i += take;
    }
}

} // namespace t3dsim::mem
