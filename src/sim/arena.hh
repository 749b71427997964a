/**
 * @file
 * EventArena: a chunked bump-pointer allocator for event-path
 * transients (DESIGN.md §9).
 *
 * The BLT's per-transfer staging buffers (one or two vectors per
 * transfer, freed before the call returns) used the heap per event.
 * They are strictly scoped — nothing outlives its transfer — which is
 * the textbook arena shape: allocate by bumping a pointer into a
 * chunk, free everything at once by rewinding.
 *
 * Pointers handed out are stable (chunks never move or grow in
 * place); rewinding keeps every chunk allocated, so a scheduler in
 * steady state performs zero heap traffic per transfer.
 *
 * Ownership and threading:
 *  - each Scheduler owns one scratch arena and installs it on the
 *    thread that calls run(); JobService workers run separate
 *    schedulers on their own threads, so the installation is
 *    thread-local;
 *  - ArenaScope allocates from the arena installed on the current
 *    thread (ScratchArenaInstall), falling back to a lazily-created
 *    thread-local arena so shell code works outside any scheduler
 *    (unit tests driving the BLT directly).
 */

#ifndef T3DSIM_SIM_ARENA_HH
#define T3DSIM_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace t3dsim::sim
{

class EventArena
{
  public:
    /** A rewind point: (chunk index, byte offset within it). */
    struct Marker
    {
        std::size_t chunk = 0;
        std::size_t offset = 0;
    };

    explicit EventArena(std::size_t chunk_bytes = 64 * 1024)
        : _chunkBytes(chunk_bytes)
    {
    }

    EventArena(const EventArena &) = delete;
    EventArena &operator=(const EventArena &) = delete;

    /** Allocate @p bytes with 8-byte alignment. Stable until the
     *  enclosing rewind. */
    std::uint8_t *
    alloc(std::size_t bytes)
    {
        const std::size_t need = (bytes + 7) & ~std::size_t{7};
        if (_chunk >= _chunks.size() ||
            _offset + need > _chunks[_chunk].size) [[unlikely]]
            nextChunk(need);
        std::uint8_t *p = _chunks[_chunk].data.get() + _offset;
        _offset += need;
        return p;
    }

    Marker mark() const { return {_chunk, _offset}; }

    /** Drop every allocation made after @p m; chunks are kept. */
    void
    rewind(Marker m)
    {
        _chunk = m.chunk;
        _offset = m.offset;
    }

    /** Drop every allocation; chunks are kept. */
    void rewindAll() { rewind({0, 0}); }

    /** Bytes currently held (for footprint accounting). */
    std::size_t
    reservedBytes() const
    {
        std::size_t total = 0;
        for (const Chunk &c : _chunks)
            total += c.size;
        return total;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<std::uint8_t[]> data;
        std::size_t size = 0;
    };

    void
    nextChunk(std::size_t need)
    {
        // Advance to the next chunk large enough for the request;
        // oversized requests get a dedicated chunk of their own size.
        while (++_chunk < _chunks.size()) {
            if (_chunks[_chunk].size >= need) {
                _offset = 0;
                return;
            }
        }
        const std::size_t size = need > _chunkBytes ? need : _chunkBytes;
        _chunks.push_back(
            {std::make_unique<std::uint8_t[]>(size), size});
        _chunk = _chunks.size() - 1;
        _offset = 0;
    }

    std::size_t _chunkBytes;
    std::vector<Chunk> _chunks;
    std::size_t _chunk = 0; ///< current chunk (may be == size(): none)
    std::size_t _offset = 0;
};

namespace detail
{
/** Arena installed on this thread by a scheduler (null = none). */
inline thread_local EventArena *tlsScratchArena = nullptr;
} // namespace detail

/** The scratch arena for this thread: the installed one, else a
 *  lazily-created thread-local fallback. */
inline EventArena &
currentScratchArena()
{
    if (detail::tlsScratchArena)
        return *detail::tlsScratchArena;
    static thread_local EventArena fallback;
    return fallback;
}

/** RAII install of @p arena as this thread's scratch arena. */
class ScratchArenaInstall
{
  public:
    explicit ScratchArenaInstall(EventArena &arena)
        : _prev(detail::tlsScratchArena)
    {
        detail::tlsScratchArena = &arena;
    }

    ~ScratchArenaInstall() { detail::tlsScratchArena = _prev; }

    ScratchArenaInstall(const ScratchArenaInstall &) = delete;
    ScratchArenaInstall &operator=(const ScratchArenaInstall &) = delete;

  private:
    EventArena *_prev;
};

/** RAII scope over the current thread's scratch arena: allocations
 *  made through the scope are dropped when it closes. */
class ArenaScope
{
  public:
    ArenaScope() : _arena(currentScratchArena()), _mark(_arena.mark()) {}
    ~ArenaScope() { _arena.rewind(_mark); }

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

    std::uint8_t *alloc(std::size_t bytes) { return _arena.alloc(bytes); }

  private:
    EventArena &_arena;
    EventArena::Marker _mark;
};

} // namespace t3dsim::sim

#endif // T3DSIM_SIM_ARENA_HH
