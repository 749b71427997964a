/**
 * @file
 * Centralized machine configurations. Every calibration constant in
 * the model lives in (or is reachable from) these structs; presets
 * reproduce the two machines of the paper: the CRAY-T3D node (§2.2)
 * and the DEC Alpha workstation used for comparison in Figure 1.
 */

#ifndef T3DSIM_MACHINE_CONFIG_HH
#define T3DSIM_MACHINE_CONFIG_HH

#include <cstdint>

#include "alpha/core.hh"
#include "alpha/tlb.hh"
#include "alpha/write_buffer.hh"
#include "mem/dram.hh"
#include "mem/storage.hh"
#include "probes/counters.hh"
#include "shell/config.hh"
#include "sim/types.hh"

namespace t3dsim::machine
{

/** Full configuration of a T3D machine. */
struct MachineConfig
{
    /** Number of processing elements. */
    std::uint32_t numPes = 32;

    /** On-chip data cache: 8 KB, 32-byte lines (§1.2). */
    std::uint64_t dcacheBytes = 8 * KiB;
    std::uint64_t dcacheLineBytes = 32;

    /** Node DRAM: 22-cycle access, 16 KB pages, 4 banks (§2.2). */
    mem::DramConfig dram{};

    /** Core instruction costs. */
    alpha::CoreConfig core{};

    /** Huge pages: no observable TLB cost on the T3D (§2.2). */
    alpha::Tlb::Config tlb{
        .entries = 32,
        .pageBytes = 4 * MiB,
        .missPenaltyCycles = 35,
    };

    /** 4-entry merging write buffer (§2.3). */
    alpha::WriteBuffer::Config writeBuffer{};

    /** Shell timing (§3-§7). */
    shell::ShellConfig shell{};

    /** Torus hop cost: 2-3 cycles per hop (§4.2). */
    Cycles hopCycles = 2;

    /** PE count at which node Storage drops from the historical
     *  64 KiB chunks (fewer, larger allocations on the hot path) to
     *  4 KiB ones, once per-touched-region granularity dominates the
     *  host footprint (DESIGN.md §11). */
    static constexpr std::uint32_t fineChunkPes = 2048;

    /** log2 of the node Storage's lazy chunk size at this PE count. */
    unsigned
    resolvedStorageChunkShift() const
    {
        return numPes >= fineChunkPes ? 12u
                                      : mem::Storage::defaultChunkShift;
    }

    /**
     * Observability switches (counters, shell-event trace, dump
     * paths). Off by default; the T3DSIM_COUNTERS / T3DSIM_TRACE
     * environment variables can switch a channel on, never off
     * (probes::ObsConfig::fromEnv). See docs/OBSERVABILITY.md.
     */
    probes::ObsConfig observe{};

    /** Canonical T3D preset. */
    static MachineConfig
    t3d(std::uint32_t pes = 32)
    {
        MachineConfig config;
        config.numPes = pes;
        return config;
    }
};

/** Configuration of the DEC Alpha workstation (Figure 1, right). */
struct WorkstationConfig
{
    std::uint64_t l1Bytes = 8 * KiB;
    std::uint64_t l1LineBytes = 32;

    /** 512 KB board-level cache (§2.2). */
    std::uint64_t l2Bytes = 512 * KiB;
    std::uint64_t l2LineBytes = 32;

    /**
     * Workstation memory: ~300 ns (45 cycles) per access (§2.2);
     * stream bandwidth about half of the T3D's.
     */
    mem::DramConfig dram{
        .pageBytes = 16 * KiB,
        .numBanks = 2,
        .pageHitCycles = 45,
        .offPagePenaltyCycles = 6,
        .sameBankPenaltyCycles = 6,
        .pipelinedBusyCycles = 10,
    };

    alpha::CoreConfig core{};

    /**
     * Standard 8 KB pages: the TLB inflection at 8 KB stride in
     * Figure 1 (right) comes from here.
     */
    alpha::Tlb::Config tlb{
        .entries = 32,
        .pageBytes = 8 * KiB,
        .missPenaltyCycles = 35,
    };

    alpha::WriteBuffer::Config writeBuffer{};

    static WorkstationConfig
    dec3000()
    {
        return WorkstationConfig{};
    }
};

} // namespace t3dsim::machine

#endif // T3DSIM_MACHINE_CONFIG_HH
