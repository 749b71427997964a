#include "apps/qcd/qcd.hh"

#include <algorithm>
#include <bit>

#include "machine/config.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "splitc/executor.hh"
#include "splitc/global_ptr.hh"
#include "splitc/proc.hh"

namespace t3dsim::apps::qcd
{

namespace
{

using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;

/**
 * Enumerate the sites of PE @p owner's boundary plane @p f (0 +x/
 * low-x … 5 -z/high-z, see Plan) whose *global* parity is @p par, in
 * face-slot order, calling fn(siteIdx, faceIdx, packedIdx).
 * packedIdx is the running index among matching sites — both sides
 * of a bulk transfer enumerate the producer's plane the same way, so
 * it defines the packed wire order without any coordination. The
 * plane is the one the direction-f neighbour's halo wants: low for
 * even f, high for odd. Updating parity p consumes only neighbours
 * of parity p^1, so every rung moves exactly that half-face.
 */
template <typename F>
void
forFace(const Plan &plan, PeId owner, std::uint32_t f,
        std::uint32_t par, F &&fn)
{
    const Config &c = plan.config;
    const Plan::GridCoord gc = plan.coordOf[owner];
    const std::uint32_t gx0 = gc.cx * c.lx;
    const std::uint32_t gy0 = gc.cy * c.ly;
    const std::uint32_t gz0 = gc.cz * c.lz;
    std::uint32_t packed = 0;
    const auto emit = [&](std::uint32_t x, std::uint32_t y,
                          std::uint32_t z, std::uint32_t t,
                          std::uint32_t slot) {
        if (((gx0 + x + gy0 + y + gz0 + z + t) & 1) != par)
            return;
        fn(plan.siteIdx(x, y, z, t), slot, packed++);
    };
    switch (f) {
      case 0:
      case 1: {
        const std::uint32_t x = (f == 0) ? 0 : c.lx - 1;
        for (std::uint32_t y = 0; y < c.ly; ++y)
            for (std::uint32_t z = 0; z < c.lz; ++z)
                for (std::uint32_t t = 0; t < c.lt; ++t)
                    emit(x, y, z, t, plan.faceIdxX(y, z, t));
        break;
      }
      case 2:
      case 3: {
        const std::uint32_t y = (f == 2) ? 0 : c.ly - 1;
        for (std::uint32_t x = 0; x < c.lx; ++x)
            for (std::uint32_t z = 0; z < c.lz; ++z)
                for (std::uint32_t t = 0; t < c.lt; ++t)
                    emit(x, y, z, t, plan.faceIdxY(x, z, t));
        break;
      }
      default: {
        const std::uint32_t z = (f == 4) ? 0 : c.lz - 1;
        for (std::uint32_t x = 0; x < c.lx; ++x)
            for (std::uint32_t y = 0; y < c.ly; ++y)
                for (std::uint32_t t = 0; t < c.lt; ++t)
                    emit(x, y, z, t, plan.faceIdxZ(x, y, t));
        break;
      }
    }
}

/** Ghost rung: fill the active-parity halo face-by-face with
 *  blocking reads (one producer per face, so one annex update then
 *  hits — the same values BlockingRead touches, grouped). */
void
exchangeGhost(Proc &p, const Plan &plan, std::uint32_t par)
{
    auto &core = p.node().core();
    const auto &nbr = plan.nbrOf[p.pe()];
    for (std::uint32_t f = 0; f < Plan::numFaces; ++f) {
        forFace(plan, nbr[f], f, par,
                [&](std::uint32_t site, std::uint32_t slot,
                    std::uint32_t) {
                    const std::uint64_t v = p.readU64(GlobalAddr::make(
                        nbr[f], plan.phiBase + Addr{site} * 8));
                    core.storeU64(plan.haloBase +
                                      Addr{plan.faceFirst[f] + slot} *
                                          8,
                                  v);
                });
    }
}

/** Get rung: the same fill pipelined through the prefetch queue. */
void
exchangeGet(Proc &p, const Plan &plan, std::uint32_t par)
{
    const auto &nbr = plan.nbrOf[p.pe()];
    for (std::uint32_t f = 0; f < Plan::numFaces; ++f) {
        forFace(plan, nbr[f], f, par,
                [&](std::uint32_t site, std::uint32_t slot,
                    std::uint32_t) {
                    p.getU64(GlobalAddr::make(nbr[f],
                                              plan.phiBase +
                                                  Addr{site} * 8),
                             plan.haloBase +
                                 Addr{plan.faceFirst[f] + slot} * 8);
                });
    }
    p.sync();
}

/** Put rung: the owner pushes its active-parity boundary planes into
 *  the matching neighbour halos with non-blocking puts. My plane f
 *  is the direction-f boundary, which the neighbour in direction
 *  f^1 sees as its halo face f. */
void
exchangePut(Proc &p, const Plan &plan, std::uint32_t par)
{
    auto &core = p.node().core();
    const auto &nbr = plan.nbrOf[p.pe()];
    for (std::uint32_t f = 0; f < Plan::numFaces; ++f) {
        forFace(plan, p.pe(), f, par,
                [&](std::uint32_t site, std::uint32_t slot,
                    std::uint32_t) {
                    const std::uint64_t v =
                        core.loadU64(plan.phiBase + Addr{site} * 8);
                    p.putU64(GlobalAddr::make(
                                 nbr[f ^ 1],
                                 plan.haloBase +
                                     Addr{plan.faceFirst[f] + slot} *
                                         8),
                             v);
                });
    }
    p.sync();
}

/** Bulk rung, first half: marshal the active parity of the six
 *  boundary planes into packed stage runs. Faces are not contiguous
 *  in phi once parity-filtered, so this gather (and the unpack on
 *  the other side) is the real marshalling cost of bulk transfer. */
void
packFaces(Proc &p, const Plan &plan, std::uint32_t par)
{
    auto &core = p.node().core();
    for (std::uint32_t f = 0; f < Plan::numFaces; ++f) {
        forFace(plan, p.pe(), f, par,
                [&](std::uint32_t site, std::uint32_t,
                    std::uint32_t packed) {
                    core.storeU64(
                        plan.stageBase +
                            Addr{plan.faceFirst[f] + packed} * 8,
                        core.loadU64(plan.phiBase + Addr{site} * 8));
                    p.compute(plan.config.packCycles);
                });
    }
    core.mb(); // staged planes must be in memory before peers pull
}

/** Bulk rung, second half: one bulk transfer per face into the
 *  landing zone, then a timed unpack into the halo slots. */
void
bulkFetchFaces(Proc &p, const Plan &plan, std::uint32_t par)
{
    auto &core = p.node().core();
    const auto &nbr = plan.nbrOf[p.pe()];
    for (std::uint32_t f = 0; f < Plan::numFaces; ++f) {
        p.bulkGet(plan.bulkRecvBase + Addr{plan.faceFirst[f]} * 8,
                  GlobalAddr::make(nbr[f],
                                   plan.stageBase +
                                       Addr{plan.faceFirst[f]} * 8),
                  std::size_t{plan.faceSites[f] / 2} * 8);
    }
    p.sync();
    for (std::uint32_t f = 0; f < Plan::numFaces; ++f) {
        forFace(plan, nbr[f], f, par,
                [&](std::uint32_t, std::uint32_t slot,
                    std::uint32_t packed) {
                    core.storeU64(
                        plan.haloBase +
                            Addr{plan.faceFirst[f] + slot} * 8,
                        core.loadU64(plan.bulkRecvBase +
                                     Addr{plan.faceFirst[f] + packed} *
                                         8));
                    p.compute(plan.config.packCycles);
                });
    }
}

/**
 * Update every site of parity @p par. Cross-boundary neighbours come
 * from the halo — or, on the BlockingRead rung, straight from the
 * owner with a blocking read at the point of use (the site loop
 * alternates faces, so the annex churns like §4 predicts).
 */
void
updateParity(Proc &p, const Plan &plan, std::uint32_t par,
             bool blocking_read)
{
    auto &core = p.node().core();
    const Config &c = plan.config;
    const auto &nbr = plan.nbrOf[p.pe()];
    const Plan::GridCoord gc = plan.coordOf[p.pe()];

    const auto local = [&](std::uint32_t site) {
        return std::bit_cast<double>(
            core.loadU64(plan.phiBase + Addr{site} * 8));
    };
    const auto fetch = [&](std::uint32_t f, std::uint32_t remote_site,
                           std::uint32_t slot) {
        if (blocking_read) {
            return std::bit_cast<double>(p.readU64(GlobalAddr::make(
                nbr[f], plan.phiBase + Addr{remote_site} * 8)));
        }
        return std::bit_cast<double>(core.loadU64(
            plan.haloBase + Addr{plan.faceFirst[f] + slot} * 8));
    };

    for (std::uint32_t x = 0; x < c.lx; ++x)
        for (std::uint32_t y = 0; y < c.ly; ++y)
            for (std::uint32_t z = 0; z < c.lz; ++z)
                for (std::uint32_t t = 0; t < c.lt; ++t) {
                    const std::uint32_t gx = gc.cx * c.lx + x;
                    const std::uint32_t gy = gc.cy * c.ly + y;
                    const std::uint32_t gz = gc.cz * c.lz + z;
                    if (((gx + gy + gz + t) & 1) != par)
                        continue;
                    const double n[8] = {
                        x + 1 < c.lx
                            ? local(plan.siteIdx(x + 1, y, z, t))
                            : fetch(0, plan.siteIdx(0, y, z, t),
                                    plan.faceIdxX(y, z, t)),
                        x > 0 ? local(plan.siteIdx(x - 1, y, z, t))
                              : fetch(1,
                                      plan.siteIdx(c.lx - 1, y, z, t),
                                      plan.faceIdxX(y, z, t)),
                        y + 1 < c.ly
                            ? local(plan.siteIdx(x, y + 1, z, t))
                            : fetch(2, plan.siteIdx(x, 0, z, t),
                                    plan.faceIdxY(x, z, t)),
                        y > 0 ? local(plan.siteIdx(x, y - 1, z, t))
                              : fetch(3,
                                      plan.siteIdx(x, c.ly - 1, z, t),
                                      plan.faceIdxY(x, z, t)),
                        z + 1 < c.lz
                            ? local(plan.siteIdx(x, y, z + 1, t))
                            : fetch(4, plan.siteIdx(x, y, 0, t),
                                    plan.faceIdxZ(x, y, t)),
                        z > 0 ? local(plan.siteIdx(x, y, z - 1, t))
                              : fetch(5,
                                      plan.siteIdx(x, y, c.lz - 1, t),
                                      plan.faceIdxZ(x, y, t)),
                        local(plan.siteIdx(x, y, z,
                                           t + 1 < c.lt ? t + 1 : 0)),
                        local(plan.siteIdx(x, y, z,
                                           t > 0 ? t - 1 : c.lt - 1)),
                    };
                    const Addr at =
                        plan.phiBase + Addr{plan.siteIdx(x, y, z, t)} * 8;
                    const double old =
                        std::bit_cast<double>(core.loadU64(at));
                    core.storeU64(at, std::bit_cast<std::uint64_t>(
                                          relaxSite(old, n, c.omega)));
                    p.compute(c.siteUpdateCycles);
                }
}

} // namespace

Result
run(const Config &config, Variant variant, std::uint32_t pes,
    const splitc::SplitcConfig &splitc_config)
{
    return run(config, variant, machine::MachineConfig::t3d(pes),
               splitc_config);
}

Result
run(const Config &config, Variant variant,
    const machine::MachineConfig &machine_config,
    const splitc::SplitcConfig &splitc_config)
{
    machine::Machine machine(machine_config);
    Plan plan = Plan::build(machine, config);

    auto program = [&](Proc &p) -> ProcTask {
        for (std::uint32_t hp = 0; hp < 2 * config.sweeps; ++hp) {
            const std::uint32_t par = hp & 1;
            // Updating parity par consumes neighbours of the other
            // parity: that is the half-face every rung moves.
            const std::uint32_t ghost_par = par ^ 1;
            switch (variant) {
              case Variant::BlockingRead:
                break; // reads at the point of use, no halo
              case Variant::Ghost:
                exchangeGhost(p, plan, ghost_par);
                break;
              case Variant::Get:
                exchangeGet(p, plan, ghost_par);
                break;
              case Variant::Put:
                exchangePut(p, plan, ghost_par);
                break;
              case Variant::Bulk:
                packFaces(p, plan, ghost_par);
                co_await p.barrier(); // stages complete everywhere
                bulkFetchFaces(p, plan, ghost_par);
                break;
            }
            co_await p.barrier(); // halo complete / field stable
            updateParity(p, plan, par,
                         variant == Variant::BlockingRead);
            co_await p.barrier(); // updates drained before next fill
        }
        co_return;
    };

    const auto finish = splitc::runSpmd(machine, program, splitc_config);

    Result result;
    result.variant = variant;
    result.elapsed = *std::max_element(finish.begin(), finish.end());
    result.sitesTotal = std::uint64_t{plan.nsites} * plan.pes;
    const double updates =
        static_cast<double>(plan.nsites) * config.sweeps;
    result.usPerSiteUpdate =
        updates > 0 ? cyclesToUs(result.elapsed) / updates : 0;

    // Validation: gather the final field and compare it bitwise to
    // the sequential reference sweep.
    std::vector<std::uint64_t> gathered;
    gathered.reserve(result.sitesTotal);
    for (PeId pe = 0; pe < plan.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::uint32_t s = 0; s < plan.nsites; ++s)
            gathered.push_back(
                storage.readU64(plan.phiBase + Addr{s} * 8));
    }
    const std::vector<double> reference = plan.reference();
    bool match = gathered.size() == reference.size();
    for (std::size_t i = 0; match && i < gathered.size(); ++i)
        match = gathered[i] ==
            std::bit_cast<std::uint64_t>(reference[i]);
    result.converged = match;
    result.checksum =
        hash::fnv1aBytes(gathered.data(), gathered.size() * 8);

    if (machine.countersEnabled()) {
        result.counters = machine.totalCounters();
        result.countersValid = true;
    }
    return result;
}

App
app(const Config &config)
{
    return {"qcd", "site-update", rungNames(allVariants, variantName),
            [config](std::size_t rung,
                     const machine::MachineConfig &machine_config,
                     const splitc::SplitcConfig &splitc_config) {
                T3D_ASSERT(rung < std::size(allVariants),
                           "qcd has no rung ", rung);
                const Variant v = allVariants[rung];
                const Result r =
                    run(config, v, machine_config, splitc_config);
                // Closed-form compute: siteUpdateCycles per site per
                // sweep; the Bulk rung's pack + unpack each touch
                // every halo slot once per sweep (one parity half per
                // half-step, two half-steps).
                const double nsites = double(config.lx) * config.ly *
                    config.lz * config.lt;
                double compute = config.sweeps * nsites *
                    double(config.siteUpdateCycles);
                if (v == Variant::Bulk) {
                    const double halo = 2.0 *
                        (double(config.ly) * config.lz * config.lt +
                         double(config.lx) * config.lz * config.lt +
                         double(config.lx) * config.ly * config.lt);
                    compute += config.sweeps * 2.0 * halo *
                        double(config.packCycles);
                }
                return RungResult{
                    .elapsed = r.elapsed,
                    .perUnit = r.usPerSiteUpdate,
                    .checksum = Checksum(r.checksum),
                    .valid = r.converged,
                    .computeCyclesPerPe = compute,
                    .counters = r.counters,
                    .countersValid = r.countersValid,
                };
            }};
}

} // namespace t3dsim::apps::qcd
