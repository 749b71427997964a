#include "machine/machine.hh"

#include <fstream>

#include "sim/logging.hh"

namespace t3dsim::machine
{

Machine::Machine(const MachineConfig &config)
    : _config(config),
      _torus(net::Torus::forPeCount(config.numPes, config.hopCycles)),
      _barrier(config.numPes, config.shell.barrierLatencyCycles),
      _obs(probes::ObsConfig::fromEnv(config.observe))
{
    _countersOn = _obs.counters;
    if (_obs.trace) {
        _trace = std::make_unique<probes::TraceSink>(config.numPes,
                                                     _obs.traceEventCap);
    }
    _transitObs = _countersOn || _trace != nullptr;

    _nodes.reserve(config.numPes);
    for (PeId pe = 0; pe < config.numPes; ++pe) {
        _nodes.push_back(std::make_unique<Node>(_config, pe, *this));
        if (_transitObs)
            _nodes.back()->enableObservability(_countersOn, _trace.get());
    }
}

Node &
Machine::node(PeId pe)
{
    T3D_FATAL_IF(pe >= _nodes.size(), "node index out of range: ", pe);
    return *_nodes[pe];
}

Cycles
Machine::transitCycles(PeId src, PeId dst) const
{
    if (_transitObs) [[unlikely]]
        observeTransit(src, dst);
    return _torus.transitCycles(src, dst);
}

void
Machine::observeTransit(PeId src, PeId dst) const
{
    // Host-side accounting only: nothing here advances a Clock, so
    // the transit latency returned to the caller is untouched.
    if (_countersOn)
        _nodes[src]->counters().torusHops += _torus.hops(src, dst);

    const std::array<std::uint64_t, 3> before = _torus.dimTraversals();
    _torus.recordRoute(src, dst);

    if (_trace) {
        static const char *const tracks[3] = {"torus.x", "torus.y",
                                              "torus.z"};
        const Cycles when = _nodes[src]->clock().now();
        const std::array<std::uint64_t, 3> &after =
            _torus.dimTraversals();
        for (unsigned d = 0; d < 3; ++d) {
            if (after[d] != before[d])
                _trace->counter(tracks[d], when, after[d]);
        }
    }
}

shell::RemoteMemoryPort &
Machine::remoteMemory(PeId pe)
{
    return node(pe);
}

std::size_t
Machine::residentModelBytes() const
{
    std::size_t bytes = sizeof(Machine) + _barrier.residentBytes() -
                        sizeof(shell::BarrierNetwork);
    bytes += _nodes.capacity() * sizeof(_nodes[0]);
    for (const auto &node : _nodes)
        bytes += node->residentModelBytes();
    return bytes;
}

probes::PerfCounters
Machine::totalCounters() const
{
    probes::PerfCounters total;
    for (const auto &node : _nodes)
        total += node->counters();
    return total;
}

void
Machine::writeCounterJson(std::ostream &os) const
{
    std::vector<probes::PerfCounters> per_pe;
    per_pe.reserve(_nodes.size());
    for (const auto &node : _nodes)
        per_pe.push_back(node->counters());

    probes::TorusLinkStats torus;
    torus.dx = _torus.dimX();
    torus.dy = _torus.dimY();
    torus.dz = _torus.dimZ();
    torus.dimTraversals = _torus.dimTraversals();
    torus.linkTraversals = _torus.linkTraversals();
    probes::writeCountersJson(os, per_pe, &torus);
}

void
Machine::writeCounterCsv(std::ostream &os) const
{
    std::vector<probes::PerfCounters> per_pe;
    per_pe.reserve(_nodes.size());
    for (const auto &node : _nodes)
        per_pe.push_back(node->counters());
    probes::writeCountersCsv(os, per_pe);
}

void
Machine::writeTraceJson(std::ostream &os) const
{
    if (_trace)
        _trace->writeJson(os);
}

void
Machine::flushObservability() const
{
    if (_countersOn && !_obs.countersPath.empty()) {
        std::ofstream os(_obs.countersPath);
        if (os)
            writeCounterJson(os);
        else
            T3D_WARN("cannot write counter report to ", _obs.countersPath);
    }
    if (_trace && !_obs.tracePath.empty()) {
        if (!_trace->writeFile(_obs.tracePath))
            T3D_WARN("cannot write trace to ", _obs.tracePath);
    }
}

} // namespace t3dsim::machine
