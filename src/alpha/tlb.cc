#include "alpha/tlb.hh"

#include <bit>

#include "sim/logging.hh"

namespace t3dsim::alpha
{

Tlb::Tlb(const Config &config)
    : _config(config)
{
    T3D_ASSERT(_config.entries > 0, "TLB needs entries");
    T3D_ASSERT(_config.pageBytes > 0, "TLB page size must be positive");
    if (std::has_single_bit(_config.pageBytes))
        _pageShift = static_cast<unsigned>(
            std::countr_zero(_config.pageBytes));
}

Cycles
Tlb::accessScan(std::uint64_t page)
{
    if (_entries.empty()) [[unlikely]]
        _entries.resize(_config.entries);
    Entry *victim = &_entries[0];
    for (auto &entry : _entries) {
        if (entry.valid && entry.page == page) {
            entry.lastUse = _useCounter;
            _prevHit = _lastHit;
            _lastHit = static_cast<unsigned>(&entry - _entries.data());
            return 0;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid && entry.lastUse < victim->lastUse) {
            victim = &entry;
        }
    }

    T3D_COUNT(_ctr, tlbMisses);
    victim->valid = true;
    victim->page = page;
    victim->lastUse = _useCounter;
    _prevHit = _lastHit;
    _lastHit = static_cast<unsigned>(victim - _entries.data());
    return _config.missPenaltyCycles;
}

bool
Tlb::contains(Addr va) const
{
    const std::uint64_t page = pageOf(va);
    for (const auto &entry : _entries) {
        if (entry.valid && entry.page == page)
            return true;
    }
    return false;
}

void
Tlb::flush()
{
    for (auto &entry : _entries)
        entry.valid = false;
    _lastHit = _prevHit = ~0u;
}

} // namespace t3dsim::alpha
