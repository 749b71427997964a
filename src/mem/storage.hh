/**
 * @file
 * Sparse byte-accurate backing storage for one node's memory.
 *
 * Data moved by the timing model is moved for real, so correctness
 * phenomena the paper describes (write-buffer synonym staleness,
 * byte-write clobbering, incoherent cached reads) are observable in
 * tests rather than merely asserted. Storage is allocated lazily in
 * fixed-size chunks so a 128 MB node segment costs nothing until
 * touched.
 *
 * Host-performance notes: consecutive accesses overwhelmingly hit
 * the same chunk (stride probes, EM3D ghost fills, line commits), so
 * a one-entry last-chunk cache answers the chunk lookup with a tag
 * compare. Behind the cache sits a two-level directory: a flat array
 * of group pointers, each group covering groupSlots consecutive
 * chunk slots and materialized only when the first chunk in its
 * range is written. An untouched storage therefore costs one small
 * top-level array (a few cache lines for a 128 MB segment) instead
 * of a full slot directory — the flyweight property that makes
 * 64K-node machines affordable. Purely host-side: simulated timing
 * is charged by the callers and unaffected.
 *
 * The chunk size is a per-instance power of two. Small-machine nodes
 * keep the historical 64 KiB default; large tori use finer chunks so
 * a node that only ever touches its stack and a few ghost lines pays
 * KBs, not 64 KiB per touched region (see
 * machine::MachineConfig::resolvedStorageChunkShift).
 */

#ifndef T3DSIM_MEM_STORAGE_HH
#define T3DSIM_MEM_STORAGE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace t3dsim::mem
{

/** Lazily-allocated sparse byte store. */
class Storage
{
  public:
    /** log2 of the default chunk size (64 KiB). */
    static constexpr unsigned defaultChunkShift = 16;

    /** Bytes per lazily-allocated chunk of a default-built Storage. */
    static constexpr std::size_t chunkBytes = std::size_t{1}
                                              << defaultChunkShift;

    /** Chunk slots per lazily-allocated directory group. */
    static constexpr std::size_t groupSlots = 256;

    /**
     * @param limit One-past-the-last valid byte address.
     * @param chunk_shift log2 of the chunk size; clamped to
     *        [minChunkShift, maxChunkShift].
     */
    explicit Storage(Addr limit = Addr{1} << 32,
                     unsigned chunk_shift = defaultChunkShift);

    Storage(const Storage &) = delete;
    Storage &operator=(const Storage &) = delete;
    ~Storage();

    /** One-past-the-last valid byte address. */
    Addr limit() const { return _limit; }

    /** Bytes per chunk of this instance. */
    std::size_t chunkSize() const { return _chunkSize; }

    std::uint8_t readU8(Addr addr) const;
    void writeU8(Addr addr, std::uint8_t value);

    /** 32-bit little-endian access; no alignment requirement. */
    std::uint32_t readU32(Addr addr) const;
    void writeU32(Addr addr, std::uint32_t value);

    /** 64-bit little-endian access; no alignment requirement. */
    std::uint64_t readU64(Addr addr) const;
    void writeU64(Addr addr, std::uint64_t value);

    /** Copy @p len bytes out of storage into @p dst. */
    void readBlock(Addr addr, void *dst, std::size_t len) const;

    /**
     * Zero-copy peek at the backing bytes of @p addr. Sets @p span to
     * the number of contiguous bytes available from @p addr to the
     * end of its chunk, capped at @p max_len, and returns a pointer
     * to them — or nullptr if the chunk was never materialized, in
     * which case the span reads as zeros. Lets sparse scans (e.g.
     * the stress harness checksum) skip untouched chunks in O(1).
     */
    const std::uint8_t *peekSpan(Addr addr, std::size_t max_len,
                                 std::size_t &span) const;

    /** Copy @p len bytes from @p src into storage. */
    void writeBlock(Addr addr, const void *src, std::size_t len);

    /**
     * Apply the set bytes of @p mask from @p data to
     * [addr, addr+len): byte i is written iff bit i of @p mask is
     * set; bits at and above @p len are ignored. The write-buffer
     * commit / masked network-write path: an 8-byte-aligned range
     * within one chunk (every line) is committed by words — a fully
     * set word is one copy, an empty one is skipped, a partial one
     * is one masked blend. Other ranges take a per-chunk span loop.
     */
    void writeMasked(Addr addr, const std::uint8_t *data,
                     std::uint64_t mask, std::size_t len);

    /** Number of chunks materialized so far (test support). */
    std::size_t chunksAllocated() const { return _chunksAllocated; }

    /** Number of directory groups materialized so far. */
    std::size_t groupsAllocated() const { return _groupsAllocated; }

    /** Host bytes resident for this store (directory + chunks). */
    std::size_t residentBytes() const;

    /** Smallest / largest supported chunk shift. */
    static constexpr unsigned minChunkShift = 9;   // 512 B
    static constexpr unsigned maxChunkShift = 24;  // 16 MiB

  private:
    /** One directory group: a run of chunk pointers. */
    struct Group
    {
        std::uint8_t *slots[groupSlots] = {};
    };

    static constexpr unsigned groupShift = 8;
    static_assert(groupSlots == std::size_t{1} << groupShift);

    /** Tag value meaning "last-chunk cache empty". */
    static constexpr Addr noChunk = ~Addr{0};

    /** Chunk holding @p addr, materializing it zero-filled if needed. */
    std::uint8_t *chunkFor(Addr addr);

    /** Chunk holding @p addr, or nullptr if never written. */
    const std::uint8_t *chunkIfPresent(Addr addr) const;

    /** Two-level lookup without touching the one-entry cache. */
    std::uint8_t *
    chunkAt(Addr key) const
    {
        const Group *g = _groups[key >> groupShift];
        return g ? g->slots[key & (groupSlots - 1)] : nullptr;
    }

    void checkRange(Addr addr, std::size_t len) const;
    void destroyChunks();

    Addr _limit;
    unsigned _chunkShift;
    std::size_t _chunkSize;
    Addr _chunkMask;

    /** Top level: one slot per group; null until materialized. */
    std::vector<Group *> _groups;
    std::size_t _chunksAllocated = 0;
    std::size_t _groupsAllocated = 0;

    /** One-entry chunk cache (chunk pointers are stable: chunks are
     *  never freed or reallocated once materialized). */
    mutable Addr _cachedKey = noChunk;
    mutable std::uint8_t *_cachedChunk = nullptr;
};

} // namespace t3dsim::mem

#endif // T3DSIM_MEM_STORAGE_HH
