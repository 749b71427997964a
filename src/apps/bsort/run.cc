#include "apps/bsort/bsort.hh"

#include <algorithm>

#include "machine/config.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "splitc/executor.hh"
#include "splitc/global_ptr.hh"
#include "splitc/proc.hh"

namespace t3dsim::apps::bsort
{

namespace
{

using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;

/** Classify + stage: route every local key to its destination run
 *  (timed local pass; the binary search over P-1 splitters is the
 *  charged per-key cost). */
void
classifyStage(Proc &p, const Plan &plan, const Plan::PerPe &pp)
{
    auto &core = p.node().core();
    const std::uint32_t n = plan.config.keysPerPe;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t v = core.loadU64(plan.keysBase + Addr{i} * 8);
        p.compute(plan.config.classifyCycles);
        core.storeU64(plan.stageBase + Addr{pp.stageSlotOfKey[i]} * 8,
                      v);
    }
    core.mb(); // staged keys must be in memory before consumers pull
}

/** The keys this PE routed to itself: a local copy, identical on
 *  every rung so the variants differ only in the remote mechanism. */
void
copySelfBlock(Proc &p, const Plan &plan, const Plan::PerPe &pp)
{
    auto &core = p.node().core();
    for (const auto &in : pp.inBlocks) {
        if (in.src != p.pe())
            continue;
        for (std::uint32_t k = 0; k < in.count; ++k) {
            core.storeU64(
                plan.recvBase + Addr{in.recvFirst + k} * 8,
                core.loadU64(plan.stageBase +
                             Addr{in.srcStageFirst + k} * 8));
        }
    }
}

/**
 * Exchange, consumer-pull with blocking reads. @p interleaved is the
 * BlockingRead rung: keys are pulled round-robin across the source
 * PEs (the order a naive merge loop consumes them), so under the
 * single-reload annex policy nearly every read pays the 23-cycle
 * annex update. The Ghost rung pulls run-by-run: one annex update
 * per producer, then annex hits.
 */
void
exchangePullBlocking(Proc &p, const Plan &plan, const Plan::PerPe &pp,
                     bool interleaved)
{
    auto &core = p.node().core();
    if (!interleaved) {
        for (const auto &in : pp.inBlocks) {
            if (in.src == p.pe())
                continue;
            for (std::uint32_t k = 0; k < in.count; ++k) {
                const std::uint64_t v = p.readU64(GlobalAddr::make(
                    in.src,
                    plan.stageBase + Addr{in.srcStageFirst + k} * 8));
                core.storeU64(plan.recvBase + Addr{in.recvFirst + k} * 8,
                              v);
            }
        }
        return;
    }
    std::uint32_t max_count = 0;
    for (const auto &in : pp.inBlocks)
        if (in.src != p.pe())
            max_count = std::max(max_count, in.count);
    for (std::uint32_t k = 0; k < max_count; ++k) {
        for (const auto &in : pp.inBlocks) {
            if (in.src == p.pe() || k >= in.count)
                continue;
            const std::uint64_t v = p.readU64(GlobalAddr::make(
                in.src,
                plan.stageBase + Addr{in.srcStageFirst + k} * 8));
            core.storeU64(plan.recvBase + Addr{in.recvFirst + k} * 8,
                          v);
        }
    }
}

/** Exchange, consumer-pull with pipelined split-phase gets. */
void
exchangeGet(Proc &p, const Plan &plan, const Plan::PerPe &pp)
{
    for (const auto &in : pp.inBlocks) {
        if (in.src == p.pe())
            continue;
        for (std::uint32_t k = 0; k < in.count; ++k) {
            p.getU64(GlobalAddr::make(
                         in.src,
                         plan.stageBase + Addr{in.srcStageFirst + k} * 8),
                     plan.recvBase + Addr{in.recvFirst + k} * 8);
        }
    }
    p.sync();
}

/** Exchange, producer-push with non-blocking puts. */
void
exchangePut(Proc &p, const Plan &plan, const Plan::PerPe &pp)
{
    auto &core = p.node().core();
    for (const auto &out : pp.outBlocks) {
        if (out.dst == p.pe())
            continue;
        for (std::uint32_t k = 0; k < out.count; ++k) {
            const std::uint64_t v = core.loadU64(
                plan.stageBase + Addr{out.stageFirst + k} * 8);
            p.putU64(GlobalAddr::make(
                         out.dst,
                         plan.recvBase + Addr{out.recvFirst + k} * 8),
                     v);
        }
    }
    p.sync();
}

/** Exchange, one bulk transfer per producer run (prefetch pipeline
 *  or BLT, chosen by the §6.3 crossover). */
void
exchangeBulk(Proc &p, const Plan &plan, const Plan::PerPe &pp)
{
    for (const auto &in : pp.inBlocks) {
        if (in.src == p.pe())
            continue;
        p.bulkGet(plan.recvBase + Addr{in.recvFirst} * 8,
                  GlobalAddr::make(in.src,
                                   plan.stageBase +
                                       Addr{in.srcStageFirst} * 8),
                  std::size_t{in.count} * 8);
    }
    p.sync();
}

/**
 * LSD radix sort of recv[0 .. count): 64/radixBits passes, each a
 * timed counting sweep plus a timed scatter between the recv and
 * scratch ping-pong buffers — the local half of the superstep moves
 * real bytes like everything else.
 */
void
radixSortLocal(Proc &p, const Plan &plan, std::uint32_t count)
{
    auto &core = p.node().core();
    const std::uint32_t bits = plan.config.radixBits;
    T3D_ASSERT(bits > 0 && 64 % bits == 0 && bits <= 16,
               "radixBits must divide 64 (got ", bits, ")");
    const std::uint32_t passes = 64 / bits;
    const std::uint32_t buckets = 1u << bits;

    Addr src = plan.recvBase;
    Addr dst = plan.scratchBase;
    std::vector<std::uint32_t> first(buckets);
    for (std::uint32_t pass = 0; pass < passes; ++pass) {
        const std::uint32_t shift = pass * bits;

        std::fill(first.begin(), first.end(), 0);
        for (std::uint32_t k = 0; k < count; ++k) {
            const std::uint64_t v = core.loadU64(src + Addr{k} * 8);
            p.compute(plan.config.radixCountCycles);
            ++first[(v >> shift) & (buckets - 1)];
        }

        // Bucket prefix sum: register/cache-resident, one charged
        // cycle per bucket.
        std::uint32_t at = 0;
        for (std::uint32_t b = 0; b < buckets; ++b) {
            const std::uint32_t c = first[b];
            first[b] = at;
            at += c;
        }
        p.compute(buckets);

        for (std::uint32_t k = 0; k < count; ++k) {
            const std::uint64_t v = core.loadU64(src + Addr{k} * 8);
            p.compute(plan.config.radixScatterCycles);
            const std::uint32_t b = (v >> shift) & (buckets - 1);
            core.storeU64(dst + Addr{first[b]++} * 8, v);
        }
        std::swap(src, dst);
    }
    // Even pass counts end back in recvBase; odd ones need a final
    // copy so the validated output location is variant-independent.
    if (src != plan.recvBase) {
        for (std::uint32_t k = 0; k < count; ++k)
            core.storeU64(plan.recvBase + Addr{k} * 8,
                          core.loadU64(src + Addr{k} * 8));
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
        const Plan::PerPe &pp = plan.perPe[p.pe()];

        classifyStage(p, plan, pp);
        co_await p.barrier();

        copySelfBlock(p, plan, pp);
        switch (variant) {
          case Variant::BlockingRead:
            exchangePullBlocking(p, plan, pp, /*interleaved=*/true);
            break;
          case Variant::Ghost:
            exchangePullBlocking(p, plan, pp, /*interleaved=*/false);
            break;
          case Variant::Get:
            exchangeGet(p, plan, pp);
            break;
          case Variant::Put:
            exchangePut(p, plan, pp);
            break;
          case Variant::Bulk:
            exchangeBulk(p, plan, pp);
            break;
        }
        co_await p.barrier();

        radixSortLocal(p, plan, pp.recvCount);
        co_await p.barrier();
        co_return;
    };

    const auto finish = splitc::runSpmd(machine, program, splitc_config);

    Result result;
    result.variant = variant;
    result.elapsed = *std::max_element(finish.begin(), finish.end());
    result.keysTotal = std::uint64_t{config.keysPerPe} * plan.pes;
    result.usPerKey = cyclesToUs(result.elapsed) / config.keysPerPe;

    // Validation: the concatenation of the per-PE sorted receive
    // blocks (bucket ranges ascend with PE number) must equal
    // std::sort of the gathered input keys.
    std::vector<std::uint64_t> gathered;
    gathered.reserve(result.keysTotal);
    for (PeId pe = 0; pe < plan.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::uint32_t k = 0; k < plan.perPe[pe].recvCount; ++k)
            gathered.push_back(
                storage.readU64(plan.recvBase + Addr{k} * 8));
    }
    std::vector<std::uint64_t> reference;
    reference.reserve(result.keysTotal);
    for (PeId pe = 0; pe < plan.pes; ++pe)
        for (std::uint32_t i = 0; i < config.keysPerPe; ++i)
            reference.push_back(keyOf(config.seed, pe, i));
    std::sort(reference.begin(), reference.end());
    result.sorted = gathered == reference;
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
    // Closed-form compute: classifyStage charges classifyCycles per
    // owned key; each of the 64/radixBits radix passes charges
    // count+scatter bookkeeping per received key (mean keysPerPe in
    // balance) plus one cycle per prefix-sum bucket.
    const double keys = config.keysPerPe;
    const double passes = 64.0 / config.radixBits;
    const double buckets = double(std::uint64_t{1} << config.radixBits);
    const double compute = keys * double(config.classifyCycles) +
        passes * (keys * double(config.radixCountCycles +
                                config.radixScatterCycles) +
                  buckets);
    return {"bsort", "key", rungNames(allVariants, variantName),
            [config, compute](
                std::size_t rung,
                const machine::MachineConfig &machine_config,
                const splitc::SplitcConfig &splitc_config) {
                T3D_ASSERT(rung < std::size(allVariants),
                           "bsort has no rung ", rung);
                const Result r = run(config, allVariants[rung],
                                     machine_config, splitc_config);
                return RungResult{
                    .elapsed = r.elapsed,
                    .perUnit = r.usPerKey,
                    .checksum = Checksum(r.checksum),
                    .valid = r.sorted,
                    .computeCyclesPerPe = compute,
                    .counters = r.counters,
                    .countersValid = r.countersValid,
                };
            }};
}

} // namespace t3dsim::apps::bsort
