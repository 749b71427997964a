#include "taskgraph/run.hh"

#include <algorithm>
#include <vector>

#include "machine/config.hh"
#include "machine/machine.hh"
#include "sim/hash.hh"
#include "splitc/executor.hh"
#include "splitc/global_ptr.hh"
#include "splitc/proc.hh"

namespace t3dsim::taskgraph
{

namespace
{

using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;

constexpr std::uint64_t kAmTag = 0x7467; // "tg"
constexpr std::uint64_t kFoldSeed = 0x9e3779b97f4a7c15ull;

/** One SplitMix64 step over @p x: the deterministic value generator
 *  for task results and edge payload words. */
std::uint64_t
mix64(std::uint64_t x)
{
    return hash::mix64(x + hash::splitMixGamma);
}

/** Edge payload word @p w as a pure function of the producer task's
 *  result — what the producer stages and the consumer must fold. */
std::uint64_t
payloadWord(std::uint64_t producer_result, std::uint32_t edge,
            std::uint32_t w)
{
    return mix64(producer_result ^ (std::uint64_t{edge} << 32) ^ w);
}

struct ProgramContext
{
    const Plan *plan;
    /** Task index -> in-edge / out-edge indices, in edge order. */
    std::vector<std::vector<std::uint32_t>> inEdges;
    std::vector<std::vector<std::uint32_t>> outEdges;
};

ProcTask
runPe(Proc &p, const ProgramContext &ctx)
{
    const Plan &plan = *ctx.plan;
    const PeId me = p.pe();

    // The handler writes each deposit's payload words straight into
    // the edge's consumer buffer (raw storage, like the stress
    // harness's handlers): distinct edges hit distinct words, so
    // dispatch order never matters.
    p.registerAmHandler(
        kAmTag, [&plan](Proc &self, const std::array<std::uint64_t, 4> &a) {
            const LoweredEdge &le =
                plan.loweredEdges[static_cast<std::uint32_t>(a[0])];
            for (std::uint32_t w = 0; w < le.words; ++w)
                self.node().storage().writeU64(le.bufAddr + Addr{w} * 8,
                                               a[1 + w]);
        });

    for (std::uint32_t level = 0; level < plan.levels; ++level) {
        const PeLevelWork &work = plan.work[me][level];

        // Phase A: fold inputs, compute, stage outputs.
        for (std::uint32_t t : work.tasks) {
            std::uint64_t acc = kFoldSeed ^ t;
            for (std::uint32_t ei : ctx.inEdges[t]) {
                const LoweredEdge &le = plan.loweredEdges[ei];
                for (std::uint32_t w = 0; w < le.words; ++w)
                    acc = mix64(
                        acc ^
                        p.readU64(GlobalAddr::make(me,
                                                   le.bufAddr + Addr{w} * 8)));
            }
            p.compute(plan.taskCycles[t]);
            const std::uint64_t result = mix64(acc);
            p.writeU64(GlobalAddr::make(me, plan.taskResultAddr[t]),
                       result);
            for (std::uint32_t ei : ctx.outEdges[t]) {
                const LoweredEdge &le = plan.loweredEdges[ei];
                for (std::uint32_t w = 0; w < le.words; ++w)
                    p.writeU64(
                        GlobalAddr::make(me, le.stagingAddr + Addr{w} * 8),
                        payloadWord(result, ei, w));
            }
        }

        // Staging must be globally visible to phase-B pulls.
        co_await p.barrier();

        // Phase B: deliver every cross-PE edge produced this level.
        bool puts_issued = false;
        for (std::uint32_t ei : work.push) {
            const LoweredEdge &le = plan.loweredEdges[ei];
            switch (le.mech) {
              case Mechanism::Store:
                for (std::uint32_t w = 0; w < le.words; ++w) {
                    const std::uint64_t v = p.readU64(GlobalAddr::make(
                        me, le.stagingAddr + Addr{w} * 8));
                    p.storeU64(GlobalAddr::make(le.dstPe,
                                                le.bufAddr + Addr{w} * 8),
                               v);
                }
                break;
              case Mechanism::Put:
                for (std::uint32_t w = 0; w < le.words; ++w) {
                    const std::uint64_t v = p.readU64(GlobalAddr::make(
                        me, le.stagingAddr + Addr{w} * 8));
                    p.putU64(GlobalAddr::make(le.dstPe,
                                              le.bufAddr + Addr{w} * 8),
                             v);
                }
                puts_issued = true;
                break;
              case Mechanism::Am: {
                std::array<std::uint64_t, 4> args{ei, 0, 0, 0};
                for (std::uint32_t w = 0; w < le.words; ++w)
                    args[1 + w] = p.readU64(GlobalAddr::make(
                        me, le.stagingAddr + Addr{w} * 8));
                p.amDeposit(le.dstPe, kAmTag, args);
                break;
              }
              case Mechanism::Message: {
                std::array<std::uint64_t, 4> words{ei, 0, 0, 0};
                for (std::uint32_t w = 0; w < le.words; ++w)
                    words[1 + w] = p.readU64(GlobalAddr::make(
                        me, le.stagingAddr + Addr{w} * 8));
                p.sendMessage(le.dstPe, words);
                break;
              }
              default:
                break;
            }
        }
        for (std::uint32_t ei : work.pull) {
            const LoweredEdge &le = plan.loweredEdges[ei];
            const GlobalAddr src =
                GlobalAddr::make(le.srcPe, le.stagingAddr);
            if (le.mech == Mechanism::Blt)
                p.bulkReadBlt(le.bufAddr, src, std::size_t{le.words} * 8);
            else
                p.bulkGet(le.bufAddr, src, std::size_t{le.words} * 8);
        }
        if (puts_issued || !work.pull.empty())
            p.sync();

        for (std::uint32_t m = 0; m < work.expectMessages; ++m) {
            co_await p.waitMessage();
            const shell::Message msg = p.takeMessage(false);
            const LoweredEdge &le =
                plan.loweredEdges[static_cast<std::uint32_t>(
                    msg.words[0])];
            for (std::uint32_t w = 0; w < le.words; ++w)
                p.writeU64(GlobalAddr::make(me, le.bufAddr + Addr{w} * 8),
                           msg.words[1 + w]);
        }
        for (std::uint32_t handled = 0; handled < work.expectAms;) {
            if (p.amPoll()) {
                ++handled;
                continue;
            }
            co_await p.amWait();
        }

        // Everything pushed this level has landed before any PE
        // starts the next level's folds.
        co_await p.allStoreSync();
    }
    co_return;
}

} // namespace

RunResult
simulate(const TaskGraph &graph, const Plan &plan,
         const RunOptions &options)
{
    machine::MachineConfig mconfig =
        machine::MachineConfig::t3d(plan.pes);
    mconfig.observe.trace = options.trace;
    mconfig.observe.tracePath = options.tracePath;

    machine::Machine machine(mconfig);

    ProgramContext ctx;
    ctx.plan = &plan;
    ctx.inEdges.resize(graph.tasks.size());
    ctx.outEdges.resize(graph.tasks.size());
    for (std::uint32_t ei = 0; ei < graph.edges.size(); ++ei) {
        ctx.inEdges[graph.edges[ei].dst].push_back(ei);
        ctx.outEdges[graph.edges[ei].src].push_back(ei);
    }

    const std::vector<Cycles> finish = splitc::runSpmd(
        machine, [&ctx](Proc &p) { return runPe(p, ctx); });

    RunResult result;
    result.levels = plan.levels;
    result.makespanCycles =
        finish.empty() ? 0 : *std::max_element(finish.begin(), finish.end());
    result.finishHash = hash::fnv1aWords(finish);

    std::uint64_t checksum = hash::fnvOffset;
    for (std::uint32_t t = 0; t < graph.tasks.size(); ++t) {
        const std::uint64_t r = machine.node(plan.placement[t])
                                    .storage()
                                    .readU64(plan.taskResultAddr[t]);
        checksum = hash::fnv1aStep(checksum, r);
    }
    result.checksum = checksum;

    if (const probes::TraceSink *trace = machine.trace())
        result.traceEvents = trace->eventCount();
    return result;
}

} // namespace t3dsim::taskgraph
