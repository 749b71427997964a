#include "taskgraph/lower.hh"

#include <algorithm>

#include "alpha/address.hh"
#include "splitc/config.hh"

namespace t3dsim::taskgraph
{

namespace
{

/** Task-graph data lives above the splitc allocator's arena so a
 *  program can still allocLocal without colliding. */
constexpr Addr kLayoutBase = 1 * MiB;

Mechanism
pickMechanism(const Edge &e, PeId src_pe, PeId dst_pe,
              const LowerOptions &opt)
{
    if (src_pe == dst_pe || e.bytes == 0)
        return Mechanism::Local;
    if (e.mech != Mechanism::Auto)
        return e.mech;
    if (e.bytes <= opt.storeMaxBytes)
        return Mechanism::Store;
    if (e.bytes <= opt.putMaxBytes)
        return Mechanism::Put;
    if (e.bytes <= opt.bltCrossoverBytes)
        return Mechanism::Get;
    return Mechanism::Blt;
}

} // namespace

bool
Plan::build(const TaskGraph &graph, const LowerOptions &options, Plan &out,
            std::string &err)
{
    out = Plan{};
    out.pes = options.pes;
    out.options = options;

    // The work table is dense, one cell per PE per level: bound it
    // before placement or layout allocate anything per PE.
    std::uint32_t levels = 0;
    for (const Task &task : graph.tasks)
        levels = std::max(levels, task.level + 1);
    out.levels = levels;
    const std::uint64_t cells =
        std::uint64_t{options.pes} * std::max(levels, 1u);
    if (cells > kMaxPeLevels) {
        err = "plan of " + std::to_string(options.pes) + " pes x " +
              std::to_string(levels) + " levels = " + std::to_string(cells) +
              " pe-levels exceeds the " + std::to_string(kMaxPeLevels) +
              " pe-level budget";
        return false;
    }

    // Task costs, bounded before anything adds them up: each one and
    // their running sum stay within kMaxGraphCycles.
    out.taskCycles.resize(graph.tasks.size());
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < graph.tasks.size(); ++t) {
        const Task &task = graph.tasks[t];
        const std::uint64_t fc = options.flopCycles;
        if (task.cycles > kMaxGraphCycles ||
            (fc != 0 && task.flops > (kMaxGraphCycles - task.cycles) / fc)) {
            err = "task " + std::to_string(t) + ": cost exceeds " +
                  std::to_string(kMaxGraphCycles) + " cycles";
            return false;
        }
        out.taskCycles[t] = task.cycles + task.flops * fc;
        if (out.taskCycles[t] > kMaxGraphCycles - total) {
            err = "task " + std::to_string(t) +
                  ": total cost of tasks exceeds " +
                  std::to_string(kMaxGraphCycles) + " cycles";
            return false;
        }
        total += out.taskCycles[t];
    }

    // Placement: pinned tasks first, then greedy least-loaded (by
    // accumulated task cost) in task-index order with the lowest PE
    // id breaking ties — fully deterministic.
    out.placement.resize(graph.tasks.size());
    std::vector<std::uint64_t> load(options.pes, 0);
    for (std::size_t t = 0; t < graph.tasks.size(); ++t) {
        const Task &task = graph.tasks[t];
        if (task.pe >= 0) {
            out.placement[t] = static_cast<PeId>(task.pe);
            load[out.placement[t]] += out.taskCycles[t];
        }
    }
    for (std::size_t t = 0; t < graph.tasks.size(); ++t) {
        if (graph.tasks[t].pe >= 0)
            continue;
        PeId best = 0;
        for (PeId pe = 1; pe < options.pes; ++pe) {
            if (load[pe] < load[best])
                best = pe;
        }
        out.placement[t] = best;
        load[best] += out.taskCycles[t];
    }

    // Mechanism choice + memory layout. Each PE's region is a bump
    // cursor: one result word per task it owns, one staging span per
    // out-edge it produces, one buffer span per cross-PE in-edge it
    // consumes. Addresses depend only on (graph, options). Every span
    // is rounded to the 32-byte cache line: AM-handler deliveries
    // write raw storage (run.cc), so no two spans may share a line a
    // consumer might already have cached. A span that would end past
    // the node segment every PE's storage is built with
    // (alpha::segBytes) is refused here, in 64-bit arithmetic, before
    // any Machine exists.
    std::vector<Addr> cursor(options.pes, kLayoutBase);
    auto claim = [&cursor](PeId pe, std::uint64_t bytes, Addr &at) {
        // Cursors stay line-aligned, so room is too, and a span that
        // fits still fits once rounded up to the line.
        if (bytes > alpha::segBytes - cursor[pe])
            return false;
        at = cursor[pe];
        cursor[pe] += (bytes + 31) & ~std::uint64_t{31};
        return true;
    };
    auto segmentFull = [&err](const std::string &what, PeId pe) {
        err = what + ": layout on pe " + std::to_string(pe) +
              " ends past the " + std::to_string(alpha::segBytes) +
              "-byte node segment";
        return false;
    };
    out.taskResultAddr.resize(graph.tasks.size());
    for (std::size_t t = 0; t < graph.tasks.size(); ++t) {
        if (!claim(out.placement[t], 8, out.taskResultAddr[t]))
            return segmentFull("task " + std::to_string(t),
                               out.placement[t]);
    }

    out.loweredEdges.resize(graph.edges.size());
    for (std::uint32_t ei = 0; ei < graph.edges.size(); ++ei) {
        const Edge &e = graph.edges[ei];
        LoweredEdge &le = out.loweredEdges[ei];
        le.edge = ei;
        le.srcPe = out.placement[e.src];
        le.dstPe = out.placement[e.dst];
        le.level = graph.tasks[e.src].level;
        le.mech = pickMechanism(e, le.srcPe, le.dstPe, options);

        // Spans are claimed for e.bytes: rounding to the line also
        // rounds to whole words.
        if (!claim(le.srcPe, e.bytes, le.stagingAddr))
            return segmentFull("edge " + std::to_string(ei), le.srcPe);
        if (le.mech != Mechanism::Local) {
            if (!claim(le.dstPe, e.bytes, le.bufAddr))
                return segmentFull("edge " + std::to_string(ei),
                                   le.dstPe);
        } else {
            // Same-PE edge: the consumer folds straight from staging.
            le.bufAddr = le.stagingAddr;
        }
        // Fits in 32 bits: the span fit in the segment.
        le.words = static_cast<std::uint32_t>((e.bytes + 7) / 8);
    }

    // Work lists.
    const splitc::SplitcConfig splitc_defaults;
    const std::uint32_t amSlots =
        splitc_defaults.amQueueSlots + splitc_defaults.amOverflowSlots;
    out.work.assign(options.pes,
                    std::vector<PeLevelWork>(std::max(levels, 1u)));
    for (std::uint32_t t = 0; t < graph.tasks.size(); ++t)
        out.work[out.placement[t]][graph.tasks[t].level].tasks.push_back(t);
    for (std::uint32_t ei = 0; ei < out.loweredEdges.size(); ++ei) {
        const LoweredEdge &le = out.loweredEdges[ei];
        switch (le.mech) {
          case Mechanism::Local:
            break;
          case Mechanism::Store:
          case Mechanism::Put:
            out.work[le.srcPe][le.level].push.push_back(ei);
            break;
          case Mechanism::Am:
            out.work[le.srcPe][le.level].push.push_back(ei);
            // A receiver drains only after its own exchange phase, so
            // every deposit of a level can be undispatched at once.
            if (++out.work[le.dstPe][le.level].expectAms > amSlots) {
                err = "edge " + std::to_string(le.edge) +
                      ": am edges into pe " + std::to_string(le.dstPe) +
                      " at level " + std::to_string(le.level) +
                      " exceed the " + std::to_string(amSlots) +
                      "-slot AM queue and overflow ring";
                return false;
            }
            break;
          case Mechanism::Message:
            out.work[le.srcPe][le.level].push.push_back(ei);
            ++out.work[le.dstPe][le.level].expectMessages;
            break;
          case Mechanism::Get:
          case Mechanism::Blt:
            out.work[le.dstPe][le.level].pull.push_back(ei);
            break;
          case Mechanism::Auto:
            err = "internal: edge " + std::to_string(ei) +
                  " left unlowered";
            return false;
        }
    }
    return true;
}

} // namespace t3dsim::taskgraph
