#include "model/apps_sig.hh"

#include "machine/config.hh"
#include "splitc/config.hh"

namespace t3dsim::model
{

namespace
{

/** Counter-enabled machine, like the bench suite's counted runs. */
machine::MachineConfig
countedConfig(std::uint32_t pes)
{
    machine::MachineConfig mc = machine::MachineConfig::t3d(pes);
    mc.observe.counters = true;
    return mc;
}

} // namespace

double
em3dComputePerPe(const em3d::Config &config, em3d::Version version,
                 std::uint64_t edges_per_pe_per_iter)
{
    Cycles per_edge = config.computeOptCycles;
    if (version == em3d::Version::Simple)
        per_edge = config.computeSimpleCycles;
    else if (version == em3d::Version::Bundle)
        per_edge = config.computeBundleCycles;

    // computeSide: computeCycles per edge, 4 cycles per destination
    // node; both the E and H sides update nodesPerPe nodes.
    const double per_iter =
        double(edges_per_pe_per_iter) * double(per_edge) +
        2.0 * double(config.nodesPerPe) * 4.0;
    return per_iter * config.iterations;
}

double
bsortComputePerPe(const apps::bsort::Config &config)
{
    const double keys = config.keysPerPe;
    const double passes = 64.0 / config.radixBits;
    const double buckets = double(std::uint64_t{1} << config.radixBits);
    // classifyStage charges classifyCycles per owned key; each radix
    // pass charges count+scatter bookkeeping per received key (mean
    // keysPerPe in balance) plus one cycle per prefix-sum bucket.
    return keys * double(config.classifyCycles) +
        passes * (keys * double(config.radixCountCycles +
                                config.radixScatterCycles) +
                  buckets);
}

double
qcdComputePerPe(const apps::qcd::Config &config, apps::Variant variant)
{
    const double nsites = double(config.lx) * config.ly * config.lz *
        config.lt;
    double cycles =
        config.sweeps * nsites * double(config.siteUpdateCycles);
    if (variant == apps::Variant::Bulk) {
        // Pack + unpack each touch every halo slot once per sweep
        // (one parity half per half-step, two half-steps).
        const double halo = 2.0 *
            (double(config.ly) * config.lz * config.lt +
             double(config.lx) * config.lz * config.lt +
             double(config.lx) * config.ly * config.lt);
        cycles += config.sweeps * 2.0 * halo *
            double(config.packCycles);
    }
    return cycles;
}

std::vector<LadderPoint>
runEm3dLadder(std::uint32_t pes, const em3d::Config &config)
{
    std::vector<LadderPoint> ladder;
    for (em3d::Version v : em3d::allVersions) {
        const em3d::Result r =
            em3d::run(config, v, countedConfig(pes));
        LadderPoint pt;
        pt.sig = signatureFromTotals(r.counters, pes);
        pt.sig.workload = "em3d";
        pt.sig.rung = em3d::versionName(v);
        pt.sig.computeCyclesPerPe =
            em3dComputePerPe(config, v, r.edgesPerPePerIter);
        pt.simulatedCycles = double(r.elapsed);
        ladder.push_back(std::move(pt));
    }
    return ladder;
}

std::vector<LadderPoint>
runBsortLadder(std::uint32_t pes, const apps::bsort::Config &config)
{
    std::vector<LadderPoint> ladder;
    for (apps::Variant v : apps::allVariants) {
        const apps::bsort::Result r =
            apps::bsort::run(config, v, countedConfig(pes));
        LadderPoint pt;
        pt.sig = signatureFromTotals(r.counters, pes);
        pt.sig.workload = "bsort";
        pt.sig.rung = apps::variantName(v);
        pt.sig.computeCyclesPerPe = bsortComputePerPe(config);
        pt.simulatedCycles = double(r.elapsed);
        ladder.push_back(std::move(pt));
    }
    return ladder;
}

std::vector<LadderPoint>
runQcdLadder(std::uint32_t pes, const apps::qcd::Config &config)
{
    std::vector<LadderPoint> ladder;
    for (apps::Variant v : apps::allVariants) {
        const apps::qcd::Result r =
            apps::qcd::run(config, v, countedConfig(pes));
        LadderPoint pt;
        pt.sig = signatureFromTotals(r.counters, pes);
        pt.sig.workload = "qcd";
        pt.sig.rung = apps::variantName(v);
        pt.sig.computeCyclesPerPe = qcdComputePerPe(config, v);
        pt.simulatedCycles = double(r.elapsed);
        ladder.push_back(std::move(pt));
    }
    return ladder;
}

} // namespace t3dsim::model
