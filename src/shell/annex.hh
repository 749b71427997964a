/**
 * @file
 * DTB Annex: the 32 external segment registers (§3.2).
 *
 * Each entry holds a destination PE number and a function code
 * selecting how accesses through that segment behave (cached vs.
 * uncached reads, atomic swap). Entry 0 is hardwired to the local
 * processor. Entries are written at user level with the
 * store-conditional instruction at a measured cost of 23 cycles —
 * the caller (node/runtime) charges that cost.
 */

#ifndef T3DSIM_SHELL_ANNEX_HH
#define T3DSIM_SHELL_ANNEX_HH

#include <array>
#include <cstdint>

#include "alpha/address.hh"
#include "sim/types.hh"

namespace t3dsim::shell
{

/** Read behavior selected by an annex entry's function code (§4.2). */
enum class ReadMode : std::uint8_t
{
    /** Fetch only the requested word; leave the cache alone. */
    Uncached,

    /** Fetch the whole 32-byte line into the local data cache. */
    Cached,

    /** Loads perform an atomic swap with the shell's swap register. */
    Swap,
};

/** One DTB Annex register. */
struct AnnexEntry
{
    PeId pe = 0;
    ReadMode readMode = ReadMode::Uncached;

    bool operator==(const AnnexEntry &) const = default;
};

/** The per-node file of 32 annex registers. */
class AnnexFile
{
  public:
    /** @param local_pe The node this annex file belongs to. */
    explicit AnnexFile(PeId local_pe);

    /**
     * Program entry @p idx. Entry 0 is hardwired local and cannot be
     * retargeted (its read mode may change).
     */
    void set(unsigned idx, const AnnexEntry &entry);

    /** Read entry @p idx. */
    const AnnexEntry &get(unsigned idx) const;

    /** Destination PE of entry @p idx. */
    PeId peOf(unsigned idx) const { return get(idx).pe; }

    /** The node this file belongs to. */
    PeId localPe() const { return _localPe; }

    /**
     * True if two distinct *programmed* entries (entry 0 counts as
     * programmed) currently name the same PE — the precondition for
     * the physical-synonym hazards of §3.4.
     */
    bool hasSynonyms() const;

    /** True if entry @p idx has been programmed since construction. */
    bool isProgrammed(unsigned idx) const;

  private:
    PeId _localPe;
    std::array<AnnexEntry, alpha::numAnnexRegs> _entries;
    std::array<bool, alpha::numAnnexRegs> _programmed{};
};

} // namespace t3dsim::shell

#endif // T3DSIM_SHELL_ANNEX_HH
