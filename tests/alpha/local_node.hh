/**
 * @file
 * Test fixture: a standalone local Alpha node (no shell) with a
 * simple DRAM-backed drain port, T3D-calibrated by default. Its
 * components count events into `counters`.
 */

#ifndef T3DSIM_TESTS_ALPHA_LOCAL_NODE_HH
#define T3DSIM_TESTS_ALPHA_LOCAL_NODE_HH

#include "alpha/cache.hh"
#include "alpha/core.hh"
#include "alpha/tlb.hh"
#include "alpha/write_buffer.hh"
#include "mem/dram.hh"
#include "mem/storage.hh"
#include "probes/counters.hh"
#include "sim/clock.hh"

namespace t3dsim::testing
{

/** A core + memory system with no shell, for alpha-layer tests. */
class LocalNode : public alpha::DrainPort
{
  public:
    explicit LocalNode(const alpha::Tlb::Config &tlb_cfg =
                           {32, 4 * MiB, 35},
                       const alpha::WriteBuffer::Config &wb_cfg = {})
        : storage(Addr{1} << 32), dram(), tlb(tlb_cfg),
          dcache(8 * KiB, 32), wb(wb_cfg, *this),
          core(alpha::CoreConfig{}, clock, tlb, dcache, wb, dram,
               storage)
    {
        tlb.setCounters(&counters);
        wb.setCounters(&counters);
        dram.setCounters(&counters);
        core.setCounters(&counters);
    }

    DrainResult
    drainLine(Cycles ready, Addr pa, const std::uint8_t *,
              std::uint32_t, std::uint32_t) override
    {
        auto access = dram.access(ready, pa);
        return {access.complete, /*deferCommit=*/true};
    }

    void
    commitLine(Addr pa, const std::uint8_t *data,
               std::uint32_t byte_mask) override
    {
        storage.writeMasked(pa, data, byte_mask, alpha::wbLineBytes);
    }

    probes::PerfCounters counters;
    Clock clock;
    mem::Storage storage;
    mem::DramController dram;
    alpha::Tlb tlb;
    alpha::DirectMappedCache dcache;
    alpha::WriteBuffer wb;
    alpha::AlphaCore core;
};

} // namespace t3dsim::testing

#endif // T3DSIM_TESTS_ALPHA_LOCAL_NODE_HH
