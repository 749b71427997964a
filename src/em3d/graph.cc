#include "em3d/em3d.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "splitc/spread.hh"

namespace t3dsim::em3d
{

const char *
versionName(Version v)
{
    switch (v) {
      case Version::Simple:
        return "Simple";
      case Version::Bundle:
        return "Bundle";
      case Version::Unroll:
        return "Unroll";
      case Version::Get:
        return "Get";
      case Version::Put:
        return "Put";
      case Version::Bulk:
        return "Bulk";
    }
    return "?";
}

namespace
{

/**
 * The only processors a PE's remote edges reference: the distinct
 * processors among pe - 2, pe - 1, pe + 1 and pe + 2 (mod P), other
 * than pe itself. On fewer than five PEs the set collapses (P = 1
 * has none). The relation is symmetric, so the same set bounds the
 * producers of both sides: E edges reference these PEs, and H edges
 * come back from them.
 */
struct Neighbours
{
    /** In generator order (the generator draws an index into it). */
    std::array<PeId, 4> pe{};

    /** The same processors in ascending PE order. */
    std::array<PeId, 4> ascending{};

    std::uint32_t count = 0;
};

Neighbours
neighboursOf(PeId pe, std::uint32_t pes)
{
    Neighbours nb;
    for (int d : {-2, -1, 1, 2}) {
        const PeId q = static_cast<PeId>(
            (static_cast<int>(pe) + d + 2 * static_cast<int>(pes)) % pes);
        if (q != pe && std::find(nb.pe.begin(), nb.pe.begin() + nb.count,
                                 q) == nb.pe.begin() + nb.count) {
            nb.pe[nb.count++] = q;
        }
    }
    for (std::uint32_t i = 0; i < nb.count; ++i) {
        std::uint32_t rank = 0;
        for (std::uint32_t j = 0; j < nb.count; ++j)
            rank += nb.pe[j] < nb.pe[i];
        nb.ascending[rank] = nb.pe[i];
    }
    return nb;
}

/** Accessor for the side (E or H) of a PerPe record. */
Graph::Side &
sideOf(Graph::PerPe &pp, bool e_side)
{
    return e_side ? pp.e : pp.h;
}

/** Slot-table entry of a remote value no edge references. */
constexpr std::uint32_t unreferenced = ~std::uint32_t{0};

/**
 * Scratch for resolveSide, reused across calls: the ghost slot of
 * value i of neighbour q is slots[rowOf[q] + i], where rowOf[q] is
 * q's rank among the side's neighbours (ascending PE) times
 * nodesPerPe. Entries of rowOf for non-neighbours are stale.
 */
struct SlotTable
{
    std::vector<std::size_t> rowOf;
    std::vector<std::uint32_t> slots;
};

/**
 * Resolve one side of @p pe, whose edges are final:
 *
 * - ghost slots, grouped by producer in ascending PE order and by
 *   producer-local index within a group, so the Bulk version moves
 *   each producer's values as one contiguous block;
 * - on each producer, the stage entries and (unsorted) pushes for
 *   this consumer — called for consumers in ascending PE order, so
 *   each producer's stage lists its consumers in that order;
 * - the fetch list, in edge-discovery order (the order a
 *   compiler-built ghost list would fetch in: producers interleave,
 *   so Bundle/Get pay the annex set-up churn of §8);
 * - every edge's compute-phase local address.
 */
void
resolveSide(Graph &g, PeId pe, bool e_side, SlotTable &table)
{
    Graph::Side &side = sideOf(g.perPe[pe], e_side);
    const Addr vals_base = e_side ? g.hValsBase : g.eValsBase;
    const Addr ghost_base = e_side ? g.eGhostBase : g.hGhostBase;
    const std::uint32_t n = g.config.nodesPerPe;
    const Neighbours nb = neighboursOf(pe, g.pes);

    for (std::uint32_t r = 0; r < nb.count; ++r)
        table.rowOf[nb.ascending[r]] = std::size_t{r} * n;
    const auto slot_of = [&](const Edge &edge) -> std::uint32_t & {
        return table.slots[table.rowOf[edge.srcPe] + edge.srcIdx];
    };

    table.slots.assign(std::size_t{nb.count} * n, unreferenced);
    for (const auto &edge : side.edges) {
        if (edge.srcPe != pe)
            slot_of(edge) = 0;
    }

    std::uint32_t slot = 0;
    for (std::uint32_t r = 0; r < nb.count; ++r) {
        const PeId q = nb.ascending[r];
        Graph::Side &prod = sideOf(g.perPe[q], e_side);
        const std::uint32_t first = slot;
        const Addr stage_offset = Addr{8} * prod.stage.size();
        for (std::uint32_t idx = 0; idx < n; ++idx) {
            std::uint32_t &entry = table.slots[std::size_t{r} * n + idx];
            if (entry == unreferenced)
                continue;
            entry = slot;
            prod.stage.push_back(idx);
            prod.pushes.push_back({idx, pe, slot});
            ++slot;
        }
        if (slot != first)
            side.groups.push_back({q, first, slot - first, stage_offset});
    }
    side.ghostCount = slot;

    std::vector<bool> listed(side.ghostCount, false);
    side.fetches.reserve(side.ghostCount);
    for (auto &edge : side.edges) {
        if (edge.srcPe == pe) {
            edge.localValueAddr = vals_base + Addr{edge.srcIdx} * 8;
            continue;
        }
        const std::uint32_t s = slot_of(edge);
        if (!listed[s]) {
            listed[s] = true;
            side.fetches.push_back({edge.srcPe, edge.srcIdx, s});
        }
        edge.localValueAddr = ghost_base + Addr{s} * 8;
    }
}

/**
 * Put a producer's pushes in node order: a stable counting sort by
 * source index, so consecutive pushes interleave destination PEs —
 * the annex-churn pattern of the Put version (§8).
 */
void
sortPushes(std::vector<Push> &pushes, std::uint32_t nodes_per_pe)
{
    std::vector<std::uint32_t> next(nodes_per_pe + 1, 0);
    for (const auto &push : pushes)
        ++next[push.srcIdx + 1];
    for (std::uint32_t i = 0; i < nodes_per_pe; ++i)
        next[i + 1] += next[i];
    std::vector<Push> sorted(pushes.size());
    for (const auto &push : pushes)
        sorted[next[push.srcIdx]++] = push;
    pushes = std::move(sorted);
}

} // namespace

Graph
Graph::build(machine::Machine &machine, const Config &config)
{
    Graph g;
    g.config = config;
    g.pes = machine.numPes();
    g.perPe.resize(g.pes);

    const std::uint32_t n = config.nodesPerPe;
    const std::size_t vals_bytes = std::size_t{n} * 8;
    // A ghost/stage slot per distinct remote value; one per edge is
    // the worst case.
    const std::size_t ghost_bytes =
        std::size_t{n} * config.degree * 8;

    g.eValsBase = splitc::allocSymmetric(machine, vals_bytes);
    g.hValsBase = splitc::allocSymmetric(machine, vals_bytes);
    g.eGhostBase = splitc::allocSymmetric(machine, ghost_bytes);
    g.hGhostBase = splitc::allocSymmetric(machine, ghost_bytes);
    g.stageBase = splitc::allocSymmetric(machine, 2 * ghost_bytes);

    // Deterministic initial field values.
    for (PeId pe = 0; pe < g.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::uint32_t i = 0; i < n; ++i) {
            const double e0 = 0.25 + 0.001 * i + 0.1 * pe;
            const double h0 = 0.75 - 0.001 * i + 0.05 * pe;
            storage.writeU64(g.eValsBase + Addr{i} * 8,
                             std::bit_cast<std::uint64_t>(e0));
            storage.writeU64(g.hValsBase + Addr{i} * 8,
                             std::bit_cast<std::uint64_t>(h0));
        }
    }

    // Generate the E-update edges. Remote producers live in a small
    // neighborhood of processors (pe +/- 1, pe +/- 2), as in the
    // original EM3D distribution: the bounded candidate set makes
    // ghost-node reuse substantial (each remote value is referenced
    // several times per step), while the multiple interleaved target
    // PEs expose the repeated annex set-up that separates the Get /
    // Put / Bulk versions (§8). h_next counts the transposed edges
    // per (owner PE, destination node) on the way.
    std::vector<std::uint32_t> h_next(std::size_t{g.pes} * n, 0);
    Rng rng(config.seed);
    for (PeId pe = 0; pe < g.pes; ++pe) {
        const Neighbours nb = neighboursOf(pe, g.pes);
        auto &edges = g.perPe[pe].e.edges;
        edges.reserve(std::size_t{n} * config.degree);
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t d = 0; d < config.degree; ++d) {
                Edge edge;
                edge.dstIdx = i;
                const bool remote =
                    nb.count != 0 && rng.nextBool(config.remoteFraction);
                edge.srcPe = remote ? nb.pe[rng.nextBounded(nb.count)] : pe;
                edge.srcIdx =
                    static_cast<std::uint32_t>(rng.nextBounded(n));
                edge.weight = 0.01 + 0.98 * rng.nextDouble();
                edges.push_back(edge);
                ++h_next[std::size_t{edge.srcPe} * n + edge.srcIdx];
            }
        }
    }

    // The H-update edge set is the transpose: if E(pe, i) depends on
    // H(q, j) with weight w, then H(q, j) depends on E(pe, i). The
    // compute loop accumulates per destination node, so each PE's
    // H edges are grouped by destination node, in (source PE, E edge)
    // order within a node: a counting scatter.
    for (PeId q = 0; q < g.pes; ++q) {
        std::uint32_t at = 0;
        for (std::uint32_t j = 0; j < n; ++j) {
            std::uint32_t &next = h_next[std::size_t{q} * n + j];
            const std::uint32_t count = next;
            next = at;
            at += count;
        }
        g.perPe[q].h.edges.resize(at);
    }
    for (PeId pe = 0; pe < g.pes; ++pe) {
        for (const auto &edge : g.perPe[pe].e.edges) {
            const std::size_t key = std::size_t{edge.srcPe} * n + edge.srcIdx;
            g.perPe[edge.srcPe].h.edges[h_next[key]++] =
                Edge{edge.srcIdx, pe, edge.dstIdx, edge.weight * 0.5};
        }
    }

    SlotTable table;
    table.rowOf.resize(g.pes);
    for (PeId pe = 0; pe < g.pes; ++pe) {
        resolveSide(g, pe, /*e_side=*/true, table);
        resolveSide(g, pe, /*e_side=*/false, table);
    }
    for (auto &pp : g.perPe) {
        sortPushes(pp.e.pushes, n);
        sortPushes(pp.h.pushes, n);
    }

    return g;
}

std::uint64_t
Graph::edgesPerPe() const
{
    std::uint64_t total = 0;
    for (const auto &pp : perPe)
        total += pp.e.edges.size() + pp.h.edges.size();
    return total / pes;
}

double
Graph::checksum(machine::Machine &machine) const
{
    double sum = 0;
    for (PeId pe = 0; pe < pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        for (std::uint32_t i = 0; i < config.nodesPerPe; ++i) {
            sum += std::bit_cast<double>(
                storage.readU64(eValsBase + Addr{i} * 8));
            sum += std::bit_cast<double>(
                storage.readU64(hValsBase + Addr{i} * 8));
        }
    }
    return sum;
}

} // namespace t3dsim::em3d
