/**
 * @file
 * 3-D torus interconnect model (§1.2, §4.2).
 *
 * The T3D network is a 3-D torus with dimension-order routing. The
 * paper measures roughly 2–3 cycles (13–20 ns) of additional latency
 * per hop; all of its micro-benchmarks target an adjacent node. This
 * model provides topology/routing (hop counts between PEs) and
 * converts hops to cycles.
 */

#ifndef T3DSIM_NET_TORUS_HH
#define T3DSIM_NET_TORUS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace t3dsim::net
{

/** Coordinates of a node in the torus. */
struct Coord
{
    std::uint32_t x = 0;
    std::uint32_t y = 0;
    std::uint32_t z = 0;

    bool operator==(const Coord &) const = default;
};

/** 3-D torus topology with dimension-order routing. */
class Torus
{
  public:
    /**
     * @param dx,dy,dz Torus dimensions; dx*dy*dz is the PE count.
     * @param hop_cycles Cycles per network hop (paper: 2–3).
     */
    Torus(std::uint32_t dx, std::uint32_t dy, std::uint32_t dz,
          Cycles hop_cycles = 2);

    /** Build a roughly cubic torus for @p pes processors. */
    static Torus forPeCount(std::uint32_t pes, Cycles hop_cycles = 2);

    std::uint32_t numPes() const { return _dx * _dy * _dz; }

    /** Coordinates of PE @p pe (x fastest). Table lookup: this sits
     *  on the per-remote-operation path, so the div/mod chain runs
     *  once per PE at construction, not per call. */
    Coord
    coordOf(PeId pe) const
    {
        T3D_ASSERT(pe < _coords.size(), "PE out of range: ", pe);
        return _coords[pe];
    }

    /** PE number at coordinates @p c. */
    PeId peAt(const Coord &c) const;

    /**
     * Hop count of the dimension-order route from @p src to @p dst,
     * taking the shorter way around each ring.
     */
    std::uint32_t
    hops(PeId src, PeId dst) const
    {
        const Coord a = coordOf(src);
        const Coord b = coordOf(dst);
        return ringDistance(a.x, b.x, _dx) +
            ringDistance(a.y, b.y, _dy) + ringDistance(a.z, b.z, _dz);
    }

    /** One-way transit latency in cycles between two PEs. */
    Cycles
    transitCycles(PeId src, PeId dst) const
    {
        return Cycles{hops(src, dst)} * _hopCycles;
    }

    Cycles hopCycles() const { return _hopCycles; }

    std::uint32_t dimX() const { return _dx; }
    std::uint32_t dimY() const { return _dy; }
    std::uint32_t dimZ() const { return _dz; }

    /**
     * Observability hook: walk the dimension-order route from
     * @p src to @p dst and account each link traversed. Host-side
     * statistics only — routing latency never depends on this, so
     * it is const with mutable counters. Called by the machine only
     * when observability is enabled (it walks the route hop by hop).
     */
    void recordRoute(PeId src, PeId dst) const;

    /** Total recorded traversals along each dimension. */
    const std::array<std::uint64_t, 3> &
    dimTraversals() const
    {
        return _dimTraversals;
    }

    /**
     * Recorded traversals of the link leaving node n along dimension
     * d, at index n * 3 + d (both ring directions combined). Empty
     * until the first recordRoute().
     */
    const std::vector<std::uint64_t> &
    linkTraversals() const
    {
        return _linkTraversals;
    }

  private:
    /** Ring distance along one dimension of extent @p dim. */
    static std::uint32_t
    ringDistance(std::uint32_t a, std::uint32_t b, std::uint32_t dim)
    {
        std::uint32_t d = a > b ? a - b : b - a;
        return std::min(d, dim - d);
    }

    std::uint32_t _dx;
    std::uint32_t _dy;
    std::uint32_t _dz;
    Cycles _hopCycles;

    /** Precomputed coordOf for every PE. */
    std::vector<Coord> _coords;

    /** @name Route statistics (observability; host-side only) */
    /// @{
    mutable std::array<std::uint64_t, 3> _dimTraversals{};
    mutable std::vector<std::uint64_t> _linkTraversals;
    /// @}
};

} // namespace t3dsim::net

#endif // T3DSIM_NET_TORUS_HH
