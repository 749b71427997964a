#include "apps/qcd/qcd.hh"

#include <bit>

#include "sim/hash.hh"
#include "sim/logging.hh"
#include "splitc/spread.hh"

namespace t3dsim::apps::qcd
{

double
phi0(std::uint64_t seed, std::uint32_t gx, std::uint32_t gy,
     std::uint32_t gz, std::uint32_t gt)
{
    // One SplitMix64 step over a per-site nonce, mapped to [0, 1):
    // regenerable anywhere (reference sweep, examples) without
    // carrying the field around.
    std::uint64_t x = seed ^ (hash::splitMixGamma * (gx + 1)) ^
        (0xbf58476d1ce4e5b9ull * (gy + 1)) ^
        (0x94d049bb133111ebull * (gz + 1)) ^
        (0xd6e8feb86659fd93ull * (gt + 1));
    return static_cast<double>(hash::splitMix64(x) >> 11) * 0x1.0p-53;
}

Plan
Plan::build(machine::Machine &machine, const Config &config)
{
    Plan plan;
    plan.config = config;
    plan.pes = machine.numPes();

    // Red-black parity only decouples the half-steps when every
    // global dimension is even; even local dims guarantee that for
    // any process grid (T is not distributed, so lt must be even on
    // its own).
    T3D_ASSERT(config.lx % 2 == 0 && config.ly % 2 == 0 &&
                   config.lz % 2 == 0 && config.lt % 2 == 0,
               "qcd local dims must all be even for red/black parity");

    const auto &torus = machine.torus();
    plan.px = torus.dimX();
    plan.py = torus.dimY();
    plan.pz = torus.dimZ();

    plan.coordOf.resize(plan.pes);
    plan.nbrOf.resize(plan.pes);
    for (PeId pe = 0; pe < plan.pes; ++pe) {
        const net::Coord c = torus.coordOf(pe);
        plan.coordOf[pe] = {c.x, c.y, c.z};
        const auto wrap = [](std::uint32_t v, int d,
                             std::uint32_t dim) {
            return static_cast<std::uint32_t>((v + dim + d) % dim);
        };
        plan.nbrOf[pe] = {
            torus.peAt({wrap(c.x, +1, plan.px), c.y, c.z}),
            torus.peAt({wrap(c.x, -1, plan.px), c.y, c.z}),
            torus.peAt({c.x, wrap(c.y, +1, plan.py), c.z}),
            torus.peAt({c.x, wrap(c.y, -1, plan.py), c.z}),
            torus.peAt({c.x, c.y, wrap(c.z, +1, plan.pz)}),
            torus.peAt({c.x, c.y, wrap(c.z, -1, plan.pz)}),
        };
    }

    plan.nsites = config.lx * config.ly * config.lz * config.lt;
    const std::uint32_t face_x = config.ly * config.lz * config.lt;
    const std::uint32_t face_y = config.lx * config.lz * config.lt;
    const std::uint32_t face_z = config.lx * config.ly * config.lt;
    plan.faceSites = {face_x, face_x, face_y, face_y, face_z, face_z};
    std::uint32_t at = 0;
    for (std::uint32_t f = 0; f < numFaces; ++f) {
        plan.faceFirst[f] = at;
        at += plan.faceSites[f];
    }
    plan.haloTotal = at;

    plan.phiBase =
        splitc::allocSymmetric(machine, std::size_t{plan.nsites} * 8);
    plan.haloBase =
        splitc::allocSymmetric(machine, std::size_t{plan.haloTotal} * 8);
    plan.stageBase =
        splitc::allocSymmetric(machine, std::size_t{plan.haloTotal} * 8);
    plan.bulkRecvBase =
        splitc::allocSymmetric(machine, std::size_t{plan.haloTotal} * 8);

    // Deterministic initial field.
    for (PeId pe = 0; pe < plan.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        const GridCoord c = plan.coordOf[pe];
        for (std::uint32_t x = 0; x < config.lx; ++x)
            for (std::uint32_t y = 0; y < config.ly; ++y)
                for (std::uint32_t z = 0; z < config.lz; ++z)
                    for (std::uint32_t t = 0; t < config.lt; ++t) {
                        const double v = phi0(
                            config.seed, c.cx * config.lx + x,
                            c.cy * config.ly + y, c.cz * config.lz + z,
                            t);
                        storage.writeU64(
                            plan.phiBase +
                                Addr{plan.siteIdx(x, y, z, t)} * 8,
                            std::bit_cast<std::uint64_t>(v));
                    }
    }

    return plan;
}

std::vector<double>
Plan::reference() const
{
    const Config &c = config;
    std::vector<double> phi(std::size_t{pes} * nsites);
    for (PeId pe = 0; pe < pes; ++pe) {
        const GridCoord gc = coordOf[pe];
        for (std::uint32_t x = 0; x < c.lx; ++x)
            for (std::uint32_t y = 0; y < c.ly; ++y)
                for (std::uint32_t z = 0; z < c.lz; ++z)
                    for (std::uint32_t t = 0; t < c.lt; ++t)
                        phi[std::size_t{pe} * nsites +
                            siteIdx(x, y, z, t)] =
                            phi0(c.seed, gc.cx * c.lx + x,
                                 gc.cy * c.ly + y, gc.cz * c.lz + z, t);
    }

    // Neighbour access across the block boundary goes through the
    // same nbrOf table as the simulated kernel; within a half-step
    // all eight neighbours have the opposite parity (global dims are
    // even), so the in-place update order cannot matter.
    const auto site = [&](PeId pe, std::uint32_t x, std::uint32_t y,
                          std::uint32_t z, std::uint32_t t) -> double & {
        return phi[std::size_t{pe} * nsites + siteIdx(x, y, z, t)];
    };

    for (std::uint32_t sweep = 0; sweep < c.sweeps; ++sweep) {
        for (std::uint32_t par = 0; par < 2; ++par) {
            for (PeId pe = 0; pe < pes; ++pe) {
                const GridCoord gc = coordOf[pe];
                for (std::uint32_t x = 0; x < c.lx; ++x)
                    for (std::uint32_t y = 0; y < c.ly; ++y)
                        for (std::uint32_t z = 0; z < c.lz; ++z)
                            for (std::uint32_t t = 0; t < c.lt; ++t) {
                                const std::uint32_t gx =
                                    gc.cx * c.lx + x;
                                const std::uint32_t gy =
                                    gc.cy * c.ly + y;
                                const std::uint32_t gz =
                                    gc.cz * c.lz + z;
                                if (((gx + gy + gz + t) & 1) != par)
                                    continue;
                                const double n[8] = {
                                    x + 1 < c.lx
                                        ? site(pe, x + 1, y, z, t)
                                        : site(nbrOf[pe][0], 0, y, z,
                                               t),
                                    x > 0 ? site(pe, x - 1, y, z, t)
                                          : site(nbrOf[pe][1],
                                                 c.lx - 1, y, z, t),
                                    y + 1 < c.ly
                                        ? site(pe, x, y + 1, z, t)
                                        : site(nbrOf[pe][2], x, 0, z,
                                               t),
                                    y > 0 ? site(pe, x, y - 1, z, t)
                                          : site(nbrOf[pe][3], x,
                                                 c.ly - 1, z, t),
                                    z + 1 < c.lz
                                        ? site(pe, x, y, z + 1, t)
                                        : site(nbrOf[pe][4], x, y, 0,
                                               t),
                                    z > 0 ? site(pe, x, y, z - 1, t)
                                          : site(nbrOf[pe][5], x, y,
                                                 c.lz - 1, t),
                                    site(pe, x, y, z,
                                         t + 1 < c.lt ? t + 1 : 0),
                                    site(pe, x, y, z,
                                         t > 0 ? t - 1 : c.lt - 1),
                                };
                                double &v = site(pe, x, y, z, t);
                                v = relaxSite(v, n, c.omega);
                            }
            }
        }
    }
    return phi;
}

} // namespace t3dsim::apps::qcd
