/**
 * @file
 * 4-D even/odd lattice relaxation sweep (after Fischler & Uchima,
 * "Performance of the Cray T3D on Canopy QCD Applications"): the
 * regular-stencil workload at the other end of the spectrum from
 * EM3D's irregular graph. A QCD-style lattice kernel touches eight
 * nearest neighbours per site in a fixed order, so its remote traffic
 * is six dense faces per half-step — a stream of same-producer
 * accesses that is exactly what the binding prefetch queue (§5) was
 * built for, and what EM3D's scattered edges never generate.
 *
 * The lattice is (px·lx, py·ly, pz·lz, lt): the X/Y/Z dimensions are
 * distributed block-wise over the machine's 3-D torus (the process
 * grid IS the torus, so every face exchange is nearest-neighbour in
 * hardware), and the T dimension is local to each PE with periodic
 * wrap. One sweep = update even-parity sites, then odd, with a halo
 * exchange of all six faces before each half-step.
 *
 * The update is a weighted Jacobi/red-black relaxation
 *
 *   phi' = (1-omega)·phi + (omega/8) · sum(8 neighbours, fixed order)
 *
 * chosen over a real Dirac operator because it keeps the arithmetic
 * order bit-reproducible: run() validates the final lattice bitwise
 * against a sequential host-side reference sweep.
 *
 * Every variant fills the same halo layout (or, for BlockingRead,
 * reads the same values in place), so all five rungs finish with
 * bit-identical lattices and checksums — only the cycle counts move.
 */

#ifndef T3DSIM_APPS_QCD_QCD_HH
#define T3DSIM_APPS_QCD_QCD_HH

#include <array>
#include <cstdint>
#include <vector>

#include "apps/app.hh"
#include "apps/variant.hh"
#include "machine/machine.hh"
#include "probes/counters.hh"
#include "splitc/config.hh"
#include "sim/types.hh"

namespace t3dsim::apps::qcd
{

/** Workload parameters. */
struct Config
{
    /** @name Local block dimensions (per-PE sites = lx·ly·lz·lt) */
    /// @{
    std::uint32_t lx = 4;
    std::uint32_t ly = 4;
    std::uint32_t lz = 4;
    std::uint32_t lt = 4;
    /// @}

    /** Full even+odd sweeps to run. */
    std::uint32_t sweeps = 2;

    /** Relaxation weight. */
    double omega = 0.9;

    std::uint64_t seed = 7;

    /** FP work charged per site update (8-point stencil ~ 10 FLOPs
     *  plus address arithmetic on a dual-issue 21064). */
    Cycles siteUpdateCycles = 24;

    /** Per-value marshalling cost in the Bulk rung's face-packing
     *  pass (load + store + loop overhead beyond the timed ops). */
    Cycles packCycles = 2;
};

/** Initial field value at global site (gx, gy, gz, gt). */
double phi0(std::uint64_t seed, std::uint32_t gx, std::uint32_t gy,
            std::uint32_t gz, std::uint32_t gt);

/**
 * The site update, shared verbatim by the simulated kernel and the
 * sequential reference so the two agree bit for bit: neighbours are
 * summed in the fixed order +x,-x,+y,-y,+z,-z,+t,-t.
 */
inline double
relaxSite(double old, const double (&nbr)[8], double omega)
{
    double acc = 0;
    for (int i = 0; i < 8; ++i)
        acc += nbr[i];
    return (1.0 - omega) * old + (omega * 0.125) * acc;
}

/**
 * Host-side decomposition: process grid (= torus dims), per-PE
 * neighbour table, face/halo geometry and the simulated memory map.
 * Built untimed, like em3d::Graph and bsort::Plan.
 */
class Plan
{
  public:
    static Plan build(machine::Machine &machine, const Config &config);

    /** Face index: 0 +x, 1 -x, 2 +y, 3 -y, 4 +z, 5 -z. The halo
     *  at face f holds the neighbour-in-direction-f's matching
     *  boundary plane; the stage at face f holds this PE's own
     *  plane at that boundary (low plane for even f, high for odd). */
    static constexpr std::uint32_t numFaces = 6;

    Config config;
    std::uint32_t pes = 0;

    /** Process grid dims (copied from the machine torus). */
    std::uint32_t px = 0, py = 0, pz = 0;

    /** Per-PE process-grid coordinates. */
    struct GridCoord
    {
        std::uint32_t cx, cy, cz;
    };
    std::vector<GridCoord> coordOf;

    /** perPe[pe][f] = PE in direction f. */
    std::vector<std::array<PeId, numFaces>> nbrOf;

    /** Sites per face, by face index. */
    std::array<std::uint32_t, numFaces> faceSites{};

    /** Halo/stage offset (in values) of each face's run. */
    std::array<std::uint32_t, numFaces> faceFirst{};

    /** Total halo (= stage) values. */
    std::uint32_t haloTotal = 0;

    /** Local sites per PE. */
    std::uint32_t nsites = 0;

    /** @name Symmetric local offsets of the simulated arrays
     *
     * The halo keeps one slot per face site, but each half-step only
     * refreshes (and only reads) the slots of the parity being
     * consumed — updating parity p touches neighbours of parity p^1,
     * so moving the other half would be pure waste on every rung.
     */
    /// @{
    Addr phiBase = 0;   ///< local block, site-major (x,y,z,t)
    Addr haloBase = 0;  ///< incoming boundary planes, face-major
    Addr stageBase = 0; ///< own planes, parity-packed for bulk
    Addr bulkRecvBase = 0; ///< bulk landing zone before halo unpack
    /// @}

    /** Flat index of local site (x, y, z, t). */
    std::uint32_t
    siteIdx(std::uint32_t x, std::uint32_t y, std::uint32_t z,
            std::uint32_t t) const
    {
        return ((x * config.ly + y) * config.lz + z) * config.lt + t;
    }

    /** Index of a site within an X / Y / Z face plane. */
    std::uint32_t
    faceIdxX(std::uint32_t y, std::uint32_t z, std::uint32_t t) const
    {
        return (y * config.lz + z) * config.lt + t;
    }
    std::uint32_t
    faceIdxY(std::uint32_t x, std::uint32_t z, std::uint32_t t) const
    {
        return (x * config.lz + z) * config.lt + t;
    }
    std::uint32_t
    faceIdxZ(std::uint32_t x, std::uint32_t y, std::uint32_t t) const
    {
        return (x * config.ly + y) * config.lt + t;
    }

    /**
     * Sequential reference sweep over the whole global lattice with
     * the same arithmetic order as the simulated kernel.
     * @return final field, concatenated per PE in local site order
     *         (directly comparable to the gathered simulated state).
     */
    std::vector<double> reference() const;
};

/** Outcome of one relaxation run. */
struct Result
{
    Variant variant;
    Cycles elapsed = 0;

    /** Elapsed time per site update (elapsed / (nsites · sweeps)). */
    double usPerSiteUpdate = 0;

    std::uint64_t sitesTotal = 0;

    /** FNV-1a over the final lattice bits, gathered in PE order:
     *  identical across variants and counter modes by construction. */
    std::uint64_t checksum = 0;

    /** Final lattice matched the sequential reference bitwise. */
    bool converged = false;

    /** Machine-wide counter totals (valid only when the machine ran
     *  with MachineConfig::observe.counters). */
    probes::PerfCounters counters{};
    bool countersValid = false;
};

/** Build the plan on a fresh machine of @p pes PEs and sweep. */
Result run(const Config &config, Variant variant, std::uint32_t pes,
           const splitc::SplitcConfig &splitc_config = {});

/** As above, on a caller-supplied machine configuration. */
Result run(const Config &config, Variant variant,
           const machine::MachineConfig &machine_config,
           const splitc::SplitcConfig &splitc_config = {});

/**
 * qcd as an apps::App over @p config: the five Variant rungs,
 * perUnit in us per site update, valid = converged.
 */
App app(const Config &config);

} // namespace t3dsim::apps::qcd

#endif // T3DSIM_APPS_QCD_QCD_HH
