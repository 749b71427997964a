#include "em3d/em3d.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
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

/** Rank of @p q among @p nb's processors in ascending PE order. */
std::uint32_t
rankOf(const Neighbours &nb, PeId q)
{
    std::uint32_t r = 0;
    while (nb.ascending[r] != q)
        ++r;
    return r;
}

/** Accessor for the side (E or H) of a PerPe record. */
Graph::Side &
sideOf(Graph::PerPe &pp, bool e_side)
{
    return e_side ? pp.e : pp.h;
}

/** Entry of a remote value no edge references. */
constexpr std::uint32_t unreferenced = ~std::uint32_t{0};

/**
 * One side's remote values per consumer PE, one entry each: value idx
 * of the neighbour of rank r (ascending PE) of consumer c is entry
 * (4c + r) * n + idx, as no PE has more than four neighbours. An entry
 * starts as `unreferenced`, is marked while the edges are generated
 * and then holds the value's ghost slot. A last row maps idx to
 * itself, so that a local edge resolves through the same lookup as a
 * remote one.
 */
class ValueTable
{
  public:
    ValueTable(std::uint32_t pes, std::uint32_t n)
        : _n(n), _entries(std::size_t{pes} * 4 * n + n, unreferenced)
    {
        std::iota(_entries.end() - n, _entries.end(), 0u);
    }

    std::size_t
    row(PeId consumer, std::uint32_t rank) const
    {
        return (std::size_t{consumer} * 4 + rank) * _n;
    }

    std::size_t identityRow() const { return _entries.size() - _n; }

    std::uint32_t &operator[](std::size_t at) { return _entries[at]; }

  private:
    std::uint32_t _n;
    std::vector<std::uint32_t> _entries;
};

/**
 * Give the remote values @p table marks for one side of @p pe their
 * ghost slots: grouped by producer in ascending PE order and by
 * producer-local index within a group, so the Bulk version moves each
 * producer's values as one contiguous block. On each producer this
 * appends the stage entries and (unsorted) pushes for this consumer;
 * it is called for consumers in ascending PE order, so each
 * producer's stage lists its consumers in that order. @p marks gets
 * each slot's entry as it stood before it was replaced by the slot.
 */
void
assignSlots(Graph &g, PeId pe, bool e_side, ValueTable &table,
            std::vector<std::uint32_t> &marks)
{
    Graph::Side &side = sideOf(g.perPe[pe], e_side);
    const std::uint32_t n = g.config.nodesPerPe;
    const Neighbours nb = neighboursOf(pe, g.pes);
    marks.clear();
    std::uint32_t slot = 0;
    for (std::uint32_t r = 0; r < nb.count; ++r) {
        const PeId q = nb.ascending[r];
        Graph::Side &prod = sideOf(g.perPe[q], e_side);
        const std::uint32_t first = slot;
        const Addr stage_offset = Addr{8} * prod.stage.size();
        const std::size_t row = table.row(pe, r);
        for (std::uint32_t idx = 0; idx < n; ++idx) {
            std::uint32_t &entry = table[row + idx];
            if (entry == unreferenced)
                continue;
            marks.push_back(entry);
            entry = slot;
            prod.stage.push_back(idx);
            prod.pushes.push_back({idx, pe, slot});
            side.slotIndex.push_back(idx);
            ++slot;
        }
        if (slot != first)
            side.groups.push_back({q, first, slot - first, stage_offset});
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
    // Edge offsets and slots are 32-bit, and a PE's H side takes its
    // edges from at most five PEs.
    T3D_ASSERT(std::uint64_t{n} * config.degree * 5 <=
                   std::numeric_limits<std::uint32_t>::max(),
               "EM3D graph too large for 32-bit edge offsets");
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
    // Put / Bulk versions (§8).
    //
    // The H-update edge set is the transpose: if E(pe, i) depends on
    // H(q, j) with weight w, then H(q, j) depends on E(pe, i). On the
    // way the loop counts the H edges per destination node into the
    // H sides' firstEdge and marks each side's remote values: an E
    // value on its first reference, when it also joins the fetch
    // list (fetches run in edge-discovery order, the order a
    // compiler-built ghost list would fetch in: producers interleave,
    // so Bundle/Get pay the annex set-up churn of §8), an H value
    // with the first H node that will reference it.
    ValueTable e_table(g.pes, n), h_table(g.pes, n);
    // The table rows an edge of consumer pe with producer q resolves
    // through: e_row[q] in pe's E table, h_row[q] (pe's values) in
    // q's H table; the identity rows when q is pe.
    std::vector<std::size_t> e_row(g.pes), h_row(g.pes);
    const auto point_rows = [&](PeId pe) {
        const Neighbours nb = neighboursOf(pe, g.pes);
        for (std::uint32_t k = 0; k < nb.count; ++k) {
            const PeId q = nb.pe[k];
            e_row[q] = e_table.row(pe, rankOf(nb, q));
            h_row[q] = h_table.row(q, rankOf(neighboursOf(q, g.pes), pe));
        }
        e_row[pe] = e_table.identityRow();
        h_row[pe] = h_table.identityRow();
        return nb;
    };
    for (auto &pp : g.perPe)
        pp.h.firstEdge.assign(std::size_t{n} + 1, 0);
    std::vector<std::uint32_t> marks;
    const Rng::Bound nodes_bound(n);
    Rng rng(config.seed);
    for (PeId pe = 0; pe < g.pes; ++pe) {
        const Neighbours nb = point_rows(pe);
        const Rng::Bound nb_bound(std::max(nb.count, 1u)); // unused at 0
        Side &side = g.perPe[pe].e;
        side.edges.reserve(std::size_t{n} * config.degree);
        side.firstEdge.resize(std::size_t{n} + 1);
        for (std::uint32_t i = 0; i < n; ++i) {
            side.firstEdge[i] = i * config.degree;
            for (std::uint32_t d = 0; d < config.degree; ++d) {
                const bool remote =
                    nb.count != 0 && rng.nextBool(config.remoteFraction);
                const PeId q =
                    remote ? nb.pe[rng.nextBounded(nb_bound)] : pe;
                const auto j =
                    static_cast<std::uint32_t>(rng.nextBounded(nodes_bound));
                const double weight = 0.01 + 0.98 * rng.nextDouble();
                side.edges.push_back({weight, q, j});
                ++g.perPe[q].h.firstEdge[j + 1];
                if (remote) {
                    std::uint32_t &mark = e_table[e_row[q] + j];
                    if (mark == unreferenced) {
                        mark = 0;
                        side.fetches.push_back({q, j, 0});
                    }
                    std::uint32_t &first_node = h_table[h_row[q] + i];
                    first_node = std::min(first_node, j);
                }
            }
        }
        side.firstEdge[n] = n * config.degree;

        assignSlots(g, pe, /*e_side=*/true, e_table, marks);
        for (Fetch &f : side.fetches)
            f.ghostSlot = e_table[e_row[f.srcPe] + f.srcIdx];
    }

    // The H sides' slots, and their fetch lists in edge-discovery
    // order: H edges run by destination node and, within a node, by
    // producer PE and producer-local index, so a stable counting sort
    // of the slots (which run in that producer order) by first
    // destination node lists them in order of first reference. Then
    // the H sides' firstEdge become CSR offsets.
    std::vector<std::uint32_t> next(std::size_t{n} + 1);
    for (PeId q = 0; q < g.pes; ++q) {
        Side &side = g.perPe[q].h;
        assignSlots(g, q, /*e_side=*/false, h_table, marks);
        std::fill(next.begin(), next.end(), 0);
        for (std::uint32_t first_node : marks)
            ++next[first_node + 1];
        for (std::uint32_t j = 0; j < n; ++j)
            next[j + 1] += next[j];
        side.fetches.resize(marks.size());
        for (const ProducerGroup &group : side.groups) {
            for (std::uint32_t s = group.firstSlot;
                 s < group.firstSlot + group.count; ++s)
                side.fetches[next[marks[s]]++] = {group.srcPe,
                                                  side.slotIndex[s], s};
        }

        for (std::uint32_t j = 0; j < n; ++j)
            side.firstEdge[j + 1] += side.firstEdge[j];
        side.edges.resize(side.firstEdge[n]);
    }

    // Scatter the H edges, in (source PE, E edge) order within a
    // node, using the H firstEdge as cursors; and point each E edge
    // at its value's ghost slot (a local one keeps its index).
    for (PeId pe = 0; pe < g.pes; ++pe) {
        point_rows(pe);
        Side &side = g.perPe[pe].e;
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t k = side.firstEdge[i];
                 k < side.firstEdge[i + 1]; ++k) {
                Edge &edge = side.edges[k];
                Side &h = g.perPe[edge.srcPe].h;
                h.edges[h.firstEdge[edge.ref]++] = {
                    edge.weight * 0.5, pe, h_table[h_row[edge.srcPe] + i]};
                edge.ref = e_table[e_row[edge.srcPe] + edge.ref];
            }
        }
    }
    // Each cursor stopped at the next node's first edge.
    for (auto &pp : g.perPe) {
        auto &first = pp.h.firstEdge;
        std::copy_backward(first.begin(), first.end() - 1, first.end());
        first[0] = 0;
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
