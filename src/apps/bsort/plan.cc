#include "apps/bsort/bsort.hh"

#include <algorithm>

#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "splitc/spread.hh"

namespace t3dsim::apps::bsort
{

std::uint64_t
keyOf(std::uint64_t seed, PeId pe, std::uint32_t i)
{
    // One SplitMix64 step over a per-(pe, i) nonce: random-looking,
    // collision-poor, and O(1) to regenerate anywhere (validation,
    // examples) without carrying the key arrays around.
    std::uint64_t x = seed ^ (hash::splitMixGamma * (pe + 1)) ^
        (0xbf58476d1ce4e5b9ull * (i + 1));
    return hash::splitMix64(x);
}

std::vector<std::uint64_t>
pickSplitters(const Config &config, std::uint32_t pes)
{
    // Regular sample: every PE contributes `oversample` evenly spaced
    // keys of its stream; the sorted sample is cut at the P-quantiles
    // (the classic sample-sort bound on bucket imbalance).
    std::vector<std::uint64_t> sample;
    sample.reserve(std::size_t{pes} * config.oversample);
    const std::uint32_t step =
        std::max(1u, config.keysPerPe / std::max(1u, config.oversample));
    for (PeId pe = 0; pe < pes; ++pe) {
        for (std::uint32_t s = 0; s < config.oversample; ++s) {
            const std::uint32_t i = (s * step) % config.keysPerPe;
            sample.push_back(keyOf(config.seed, pe, i));
        }
    }
    std::sort(sample.begin(), sample.end());

    std::vector<std::uint64_t> splitters;
    splitters.reserve(pes - 1);
    for (std::uint32_t b = 1; b < pes; ++b)
        splitters.push_back(sample[b * sample.size() / pes]);
    return splitters;
}

std::uint32_t
bucketOf(std::uint64_t key, const std::vector<std::uint64_t> &splitters)
{
    // Bucket b holds keys in [splitters[b-1], splitters[b]).
    return static_cast<std::uint32_t>(
        std::upper_bound(splitters.begin(), splitters.end(), key) -
        splitters.begin());
}

Plan
Plan::build(machine::Machine &machine, const Config &config)
{
    Plan plan;
    plan.config = config;
    plan.pes = machine.numPes();
    plan.perPe.resize(plan.pes);
    plan.splitters = pickSplitters(config, plan.pes);

    const std::uint32_t n = config.keysPerPe;

    // Outgoing counts per (src, dst) and each key's destination.
    std::vector<std::vector<std::uint32_t>> counts(
        plan.pes, std::vector<std::uint32_t>(plan.pes, 0));
    std::vector<std::vector<std::uint32_t>> destOfKey(
        plan.pes, std::vector<std::uint32_t>(n));
    for (PeId pe = 0; pe < plan.pes; ++pe) {
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t d =
                bucketOf(keyOf(config.seed, pe, i), plan.splitters);
            destOfKey[pe][i] = d;
            ++counts[pe][d];
        }
    }

    // Stage layout on each producer: runs in ascending destination.
    // Receive layout on each consumer: runs in ascending source.
    // recvFirst[s][d] = where src s's run starts inside d's receive
    // array (prefix over sources), so every variant can compute its
    // target slots without any runtime coordination.
    std::vector<std::vector<std::uint32_t>> recvFirst(
        plan.pes, std::vector<std::uint32_t>(plan.pes, 0));
    for (PeId d = 0; d < plan.pes; ++d) {
        std::uint32_t at = 0;
        for (PeId s = 0; s < plan.pes; ++s) {
            recvFirst[s][d] = at;
            at += counts[s][d];
        }
        plan.perPe[d].recvCount = at;
        plan.maxRecv = std::max(plan.maxRecv, at);
    }

    for (PeId pe = 0; pe < plan.pes; ++pe) {
        PerPe &pp = plan.perPe[pe];

        // Producer: stage offsets by ascending destination.
        std::vector<std::uint32_t> stageFirst(plan.pes, 0);
        std::uint32_t at = 0;
        for (PeId d = 0; d < plan.pes; ++d) {
            stageFirst[d] = at;
            if (counts[pe][d] > 0) {
                pp.outBlocks.push_back(
                    {d, at, recvFirst[pe][d], counts[pe][d]});
            }
            at += counts[pe][d];
        }
        T3D_ASSERT(at == n, "stage layout lost keys on PE ", pe);

        // Key -> stage slot, stable within a destination run.
        pp.stageSlotOfKey.resize(n);
        std::vector<std::uint32_t> seen(plan.pes, 0);
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t d = destOfKey[pe][i];
            pp.stageSlotOfKey[i] = stageFirst[d] + seen[d]++;
        }

        // Consumer: incoming runs by ascending source.
        for (PeId s = 0; s < plan.pes; ++s) {
            if (counts[s][pe] == 0)
                continue;
            // The producer's stage offset for destination `pe` is the
            // prefix of its counts below `pe`.
            std::uint32_t src_stage_first = 0;
            for (PeId d = 0; d < pe; ++d)
                src_stage_first += counts[s][d];
            pp.inBlocks.push_back(
                {s, src_stage_first, recvFirst[s][pe], counts[s][pe]});
        }
    }

    // Simulated memory map (symmetric, sized by the busiest PE).
    const std::size_t key_bytes = std::size_t{n} * 8;
    const std::size_t recv_bytes = std::size_t{plan.maxRecv} * 8;
    plan.keysBase = splitc::allocSymmetric(machine, key_bytes);
    plan.stageBase = splitc::allocSymmetric(machine, key_bytes);
    plan.recvBase = splitc::allocSymmetric(machine, recv_bytes);
    plan.scratchBase = splitc::allocSymmetric(machine, recv_bytes);

    // Deterministic initial key arrays.
    for (PeId pe = 0; pe < plan.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::uint32_t i = 0; i < n; ++i)
            storage.writeU64(plan.keysBase + Addr{i} * 8,
                             keyOf(config.seed, pe, i));
    }

    return plan;
}

} // namespace t3dsim::apps::bsort
