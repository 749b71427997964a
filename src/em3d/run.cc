#include "em3d/em3d.hh"

#include <algorithm>
#include <bit>

#include "machine/config.hh"
#include "sim/logging.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

namespace t3dsim::em3d
{

namespace
{

using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;

/** Per-version knobs the phases switch on. */
struct Plan
{
    Version version;
    Cycles computeCycles;
    bool useGhosts;
};

Plan
planFor(Version v, const Config &cfg)
{
    switch (v) {
      case Version::Simple:
        return {v, cfg.computeSimpleCycles, false};
      case Version::Bundle:
        return {v, cfg.computeBundleCycles, true};
      case Version::Unroll:
      case Version::Get:
      case Version::Put:
      case Version::Bulk:
        return {v, cfg.computeOptCycles, true};
    }
    T3D_PANIC("unknown EM3D version");
}

/**
 * Ghost-fill phase for one side using the consumer-pull mechanisms
 * (Bundle/Unroll: blocking reads; Get: pipelined gets).
 */
void
fillGhostsPull(Proc &p, const Graph::Side &side, const Graph::Arrays &a,
               bool pipelined)
{
    auto &core = p.node().core();
    if (!pipelined) {
        for (const auto &f : side.fetches) {
            const std::uint64_t v = p.readU64(GlobalAddr::make(
                f.srcPe, a.producers + Addr{f.srcIdx} * 8));
            core.storeU64(a.ghosts + Addr{f.ghostSlot} * 8, v);
        }
        return;
    }
    for (const auto &f : side.fetches) {
        p.getU64(GlobalAddr::make(f.srcPe,
                                  a.producers + Addr{f.srcIdx} * 8),
                 a.ghosts + Addr{f.ghostSlot} * 8);
    }
    p.sync();
}

/** Producer-push fill (Put version). */
void
fillGhostsPush(Proc &p, const Graph::Side &side, const Graph::Arrays &a)
{
    auto &core = p.node().core();
    for (const auto &push : side.pushes) {
        const std::uint64_t v =
            core.loadU64(a.producers + Addr{push.srcIdx} * 8);
        p.putU64(GlobalAddr::make(push.dstPe,
                                  a.ghosts + Addr{push.ghostSlot} * 8),
                 v);
    }
    p.sync();
}

/** Producer-side staging for the Bulk version. */
void
stageOutgoing(Proc &p, const Graph::Side &side, Addr producer_base,
              Addr stage_base)
{
    auto &core = p.node().core();
    Addr out = stage_base;
    for (std::uint32_t idx : side.stage) {
        core.storeU64(out, core.loadU64(producer_base + Addr{idx} * 8));
        out += 8;
    }
    core.mb(); // stage must be in memory before consumers pull
}

/** Consumer-side bulk gets for the Bulk version. */
void
fillGhostsBulk(Proc &p, const Graph::Side &side, Addr ghost_base,
               Addr stage_base)
{
    for (const auto &group : side.groups) {
        p.bulkGet(ghost_base + Addr{group.firstSlot} * 8,
                  GlobalAddr::make(group.srcPe,
                                   stage_base +
                                       group.producerStageOffset),
                  std::size_t{group.count} * 8);
    }
    p.sync();
}

/**
 * Compute phase: for every destination node with in-edges, accumulate
 * the weighted sum of its dependencies and leapfrog-update the value.
 * Versions differ only in where the value comes from (ghost/local vs.
 * a possibly-remote blocking read) and in the per-edge instruction
 * overhead charged.
 */
void
computeSide(Proc &p, const Plan &plan, const Graph::Side &side,
            const Graph::Arrays &a)
{
    auto &core = p.node().core();
    const PeId pe = p.pe();
    const std::uint32_t nodes =
        static_cast<std::uint32_t>(side.firstEdge.size()) - 1;
    for (std::uint32_t dst = 0; dst < nodes; ++dst) {
        const std::uint32_t begin = side.firstEdge[dst];
        const std::uint32_t end = side.firstEdge[dst + 1];
        if (begin == end)
            continue;
        double acc = 0;
        for (std::uint32_t k = begin; k < end; ++k) {
            const Edge &edge = side.edges[k];
            double v;
            if (plan.useGhosts) {
                v = std::bit_cast<double>(
                    core.loadU64(a.valueAddr(edge, pe)));
            } else {
                v = p.readF64(GlobalAddr::make(
                    edge.srcPe,
                    a.producers + Addr{side.srcIdx(edge, pe)} * 8));
            }
            acc += edge.weight * v;
            p.compute(plan.computeCycles);
        }
        const Addr dst_addr = a.vals + Addr{dst} * 8;
        const double old_val =
            std::bit_cast<double>(core.loadU64(dst_addr));
        core.storeU64(dst_addr,
                      std::bit_cast<std::uint64_t>(0.5 * old_val +
                                                   acc));
        p.compute(4); // node-level loop overhead
    }
}

} // namespace

Result
run(const Config &config, Version version, std::uint32_t pes,
    const splitc::SplitcConfig &splitc_config)
{
    return run(config, version, machine::MachineConfig::t3d(pes),
               splitc_config);
}

Result
run(const Config &config, Version version,
    const machine::MachineConfig &machine_config,
    const splitc::SplitcConfig &splitc_config)
{
    machine::Machine machine(machine_config);
    Graph g = Graph::build(machine, config);
    const Plan plan = planFor(version, config);

    auto program = [&](Proc &p) -> ProcTask {
        const Graph::PerPe &pp = g.perPe[p.pe()];
        for (int iter = 0; iter < config.iterations; ++iter) {
            // E update (consumes H values), then H update (consumes
            // E values).
            for (int s = 0; s < 2; ++s) {
                const bool e_side = s == 0;
                const Graph::Side &side = e_side ? pp.e : pp.h;
                const Graph::Arrays a = g.arrays(e_side);
                switch (plan.version) {
                  case Version::Simple:
                    break;
                  case Version::Bundle:
                  case Version::Unroll:
                    fillGhostsPull(p, side, a, false);
                    break;
                  case Version::Get:
                    fillGhostsPull(p, side, a, true);
                    break;
                  case Version::Put:
                    fillGhostsPush(p, side, a);
                    break;
                  case Version::Bulk:
                    stageOutgoing(p, side, a.producers, g.stageBase);
                    co_await p.barrier();
                    fillGhostsBulk(p, side, a.ghosts, g.stageBase);
                    break;
                }
                co_await p.barrier();
                computeSide(p, plan, side, a);
                co_await p.barrier();
            }
        }
        co_return;
    };

    auto finish = splitc::runSpmd(machine, program, splitc_config);

    Result result;
    result.version = version;
    result.elapsed = *std::max_element(finish.begin(), finish.end());
    result.edgesPerPePerIter = g.edgesPerPe();
    const double edges = double(result.edgesPerPePerIter) *
        config.iterations;
    result.usPerEdge = cyclesToUs(result.elapsed) / edges;
    result.checksum = g.checksum(machine);
    result.modeledBytes = machine.residentModelBytes();
    if (machine.countersEnabled()) {
        result.counters = machine.totalCounters();
        result.countersValid = true;
    }
    return result;
}

apps::App
app(const Config &config)
{
    return {"em3d", "edge", apps::rungNames(allVersions, versionName),
            [config](std::size_t rung,
                     const machine::MachineConfig &machine_config,
                     const splitc::SplitcConfig &splitc_config) {
                T3D_ASSERT(rung < std::size(allVersions),
                           "EM3D has no rung ", rung);
                const Version v = allVersions[rung];
                const Result r =
                    run(config, v, machine_config, splitc_config);
                // Closed-form compute (mirrors computeSide):
                // computeCycles per edge plus the 4-cycle node-loop
                // overhead per destination node, on both the E and H
                // sides, per iteration.
                const double per_iter =
                    double(r.edgesPerPePerIter) *
                        double(planFor(v, config).computeCycles) +
                    2.0 * double(config.nodesPerPe) * 4.0;
                return apps::RungResult{
                    .elapsed = r.elapsed,
                    .perUnit = r.usPerEdge,
                    .checksum = apps::Checksum(r.checksum),
                    .valid = true,
                    .computeCyclesPerPe = per_iter * config.iterations,
                    .counters = r.counters,
                    .countersValid = r.countersValid,
                };
            }};
}

} // namespace t3dsim::em3d
