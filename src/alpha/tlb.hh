/**
 * @file
 * Translation look-aside buffer model (§2.2, §3.4).
 *
 * The T3D runs with very large pages, so its read-latency profile
 * shows no TLB inflection and annexed (remote-segment) accesses do
 * not meaningfully consume TLB reach — the property that makes
 * multiple annex registers *safe* for the TLB even though they are
 * unsafe for the write buffer (§3.4). The DEC workstation uses 8 KB
 * pages, producing the inflection at 8 KB stride in Figure 1.
 *
 * Modeled as fully associative with LRU replacement; translation is
 * identity (see alpha/address.hh) so the TLB only contributes a miss
 * penalty.
 */

#ifndef T3DSIM_ALPHA_TLB_HH
#define T3DSIM_ALPHA_TLB_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "probes/counters.hh"
#include "sim/types.hh"

namespace t3dsim::alpha
{

/** Fully associative LRU TLB; timing-only. */
class Tlb
{
  public:
    struct Config
    {
        /** Number of entries. 21064 DTB: 32. */
        unsigned entries = 32;

        /** Page size; T3D preset uses huge (4 MB) pages. */
        std::uint64_t pageBytes = 4 * MiB;

        /** Cycles added by a miss (page-table walk via PALcode). */
        Cycles missPenaltyCycles = 35;
    };

    explicit Tlb(const Config &config);

    /**
     * Touch the translation for @p va.
     * @return Penalty cycles (0 on hit).
     *
     * Inline fast path: a repeat hit on the entry that satisfied the
     * previous access (the overwhelming case under the T3D's 4 MB
     * pages) costs a compare and a counter bump. A hit on the entry
     * before that (a local page and an annexed one in alternation,
     * as under EM3D) costs a second compare; everything else falls
     * through to the associative scan.
     */
    Cycles
    access(Addr va)
    {
        const std::uint64_t page = pageOf(va);
        ++_useCounter;
        if (hitAt(_lastHit, page))
            return 0;
        if (hitAt(_prevHit, page)) {
            std::swap(_lastHit, _prevHit);
            return 0;
        }
        return accessScan(page);
    }

    /** True if the page holding @p va is currently mapped. */
    bool contains(Addr va) const;

    /** Drop all entries. */
    void flush();

    /** Attach (or detach, with nullptr) the node's event counters. */
    void setCounters(probes::PerfCounters *ctr) { _ctr = ctr; }

    const Config &config() const { return _config; }

    /** Host bytes resident for this TLB model. */
    std::size_t
    residentBytes() const
    {
        return sizeof(Tlb) + _entries.capacity() * sizeof(Entry);
    }

  private:
    struct Entry
    {
        std::uint64_t page = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    /** Record a hit if entry @p idx holds @p page. */
    bool
    hitAt(unsigned idx, std::uint64_t page)
    {
        if (idx >= _entries.size())
            return false;
        Entry &entry = _entries[idx];
        if (!entry.valid || entry.page != page)
            return false;
        entry.lastUse = _useCounter;
        return true;
    }

    /** Scan path of access(): LRU lookup/replace for @p page. */
    Cycles accessScan(std::uint64_t page);

    /** Page number of @p va (shift when the page size is a power of
     *  two — the common configs — division otherwise). */
    std::uint64_t
    pageOf(Addr va) const
    {
        return _pageShift ? va >> _pageShift : va / _config.pageBytes;
    }

    Config _config;

    /** Entry array, materialized on the first associative scan: an
     *  untouched PE's TLB costs only the vector header. Empty and
     *  full-size are the only states (access() treats empty as
     *  all-invalid via the _lastHit bounds check). */
    std::vector<Entry> _entries;

    /** log2(pageBytes) when it is a power of two, else 0. */
    unsigned _pageShift = 0;

    /** Indices of the entries that satisfied the last access and
     *  the one before it: repeated same-page accesses (the
     *  overwhelming pattern under 4 MB pages) and local/annexed
     *  alternation skip the associative scan. Guarded by a
     *  page/valid re-check, so they are a pure host-side shortcut. */
    unsigned _lastHit = ~0u;
    unsigned _prevHit = ~0u;

    probes::PerfCounters *_ctr = nullptr;

    std::uint64_t _useCounter = 0;
};

} // namespace t3dsim::alpha

#endif // T3DSIM_ALPHA_TLB_HH
