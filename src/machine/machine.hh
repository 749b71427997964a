/**
 * @file
 * The assembled CRAY-T3D: N nodes on a 3-D torus plus the wired-OR
 * barrier network.
 */

#ifndef T3DSIM_MACHINE_MACHINE_HH
#define T3DSIM_MACHINE_MACHINE_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "machine/config.hh"
#include "machine/node.hh"
#include "net/torus.hh"
#include "probes/counters.hh"
#include "probes/trace.hh"
#include "shell/barrier.hh"
#include "shell/ports.hh"
#include "sim/types.hh"

namespace t3dsim::machine
{

/** A whole T3D. */
class Machine : public shell::MachinePort
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig::t3d());

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    Node &node(PeId pe);
    const MachineConfig &config() const { return _config; }
    net::Torus &torus() { return _torus; }
    shell::BarrierNetwork &barrier() { return _barrier; }

    /** @name shell::MachinePort */
    /// @{
    Cycles transitCycles(PeId src, PeId dst) const override;
    shell::RemoteMemoryPort &remoteMemory(PeId pe) override;
    std::uint32_t numPes() const override { return _config.numPes; }
    /// @}

    /**
     * Host bytes resident for the modeled machine state: every
     * node's lazily-materialized components plus the barrier
     * network (see DESIGN.md §11). Serial-only (walks node
     * internals); intended for capacity reporting, not hot paths.
     */
    std::size_t residentModelBytes() const;

    /** @name Observability (see docs/OBSERVABILITY.md) */
    /// @{
    /** Effective switches (config merged with the environment). */
    const probes::ObsConfig &observe() const { return _obs; }

    bool countersEnabled() const { return _countersOn; }

    /** The machine-wide trace sink; null unless tracing is on. */
    probes::TraceSink *trace() const { return _trace.get(); }

    /** Sum of every node's counter record. */
    probes::PerfCounters totalCounters() const;

    /** Machine-wide counter report (schema t3dsim-counters-v1). */
    void writeCounterJson(std::ostream &os) const;

    /** Counter report as CSV (one row per PE plus totals). */
    void writeCounterCsv(std::ostream &os) const;

    /** Chrome trace-event JSON of the recorded shell events. */
    void writeTraceJson(std::ostream &os) const;

    /**
     * Write the configured countersPath / tracePath dumps, if any.
     * Called by the SPMD executor when a run finishes; safe to call
     * repeatedly or with observability off (does nothing).
     */
    void flushObservability() const;
    /// @}

  private:
    /** Route/hop accounting for one transit (observability on). */
    void observeTransit(PeId src, PeId dst) const;

    MachineConfig _config;
    net::Torus _torus;
    shell::BarrierNetwork _barrier;
    std::vector<std::unique_ptr<Node>> _nodes;

    probes::ObsConfig _obs;
    std::unique_ptr<probes::TraceSink> _trace;
    bool _countersOn = false;

    /** True when transitCycles must account routes (either channel). */
    bool _transitObs = false;
};

} // namespace t3dsim::machine

#endif // T3DSIM_MACHINE_MACHINE_HH
