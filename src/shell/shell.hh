/**
 * @file
 * The per-node shell: aggregation of every support mechanism Cray
 * wrapped around the Alpha (§1.2). One instance per node; the
 * machine layer wires it to the core and the interconnect.
 */

#ifndef T3DSIM_SHELL_SHELL_HH
#define T3DSIM_SHELL_SHELL_HH

#include <cstdint>

#include "alpha/core.hh"
#include "probes/counters.hh"
#include "probes/trace.hh"
#include "shell/annex.hh"
#include "shell/blt.hh"
#include "shell/config.hh"
#include "shell/fetch_inc.hh"
#include "shell/msg_queue.hh"
#include "shell/ports.hh"
#include "shell/prefetch.hh"
#include "shell/remote_engine.hh"
#include "sim/types.hh"

namespace t3dsim::shell
{

/** All shell circuitry of one node. */
class Shell
{
  public:
    Shell(const ShellConfig &config, PeId local_pe, MachinePort &machine,
          alpha::AlphaCore &core);

    Shell(const Shell &) = delete;
    Shell &operator=(const Shell &) = delete;

    /**
     * Program annex register @p idx, charging the 23-cycle
     * store-conditional update cost (§3.2).
     */
    void setAnnex(unsigned idx, const AnnexEntry &entry);

    AnnexFile &annex() { return _annex; }
    const AnnexFile &annex() const { return _annex; }
    PrefetchQueue &prefetch() { return _prefetch; }
    RemoteEngine &remote() { return _remote; }
    BlockTransferEngine &blt() { return _blt; }
    MessageQueue &messages() { return _messages; }
    FetchIncRegisters &fetchIncRegs() { return _fetchInc; }

    const ShellConfig &config() const { return _config; }
    PeId localPe() const { return _localPe; }

    /**
     * Attach the node's event counters and the machine-wide trace
     * sink to every shell mechanism (both may be null). Called once
     * by the node when observability is enabled; recording never
     * advances simulated time.
     */
    void setObservability(probes::PerfCounters *ctr,
                          probes::TraceSink *trace);

  private:
    ShellConfig _config;
    PeId _localPe;
    alpha::AlphaCore &_core;

    AnnexFile _annex;
    PrefetchQueue _prefetch;
    RemoteEngine _remote;
    BlockTransferEngine _blt;
    MessageQueue _messages;
    FetchIncRegisters _fetchInc;

    probes::PerfCounters *_ctr = nullptr;
    probes::TraceSink *_trace = nullptr;
};

} // namespace t3dsim::shell

#endif // T3DSIM_SHELL_SHELL_HH
