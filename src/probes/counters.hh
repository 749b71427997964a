/**
 * @file
 * Per-node hardware event counters (the observability layer's
 * "what happened" half; see docs/OBSERVABILITY.md).
 *
 * The paper infers the shell's internal behaviour from end-to-end
 * latencies; the model can expose those events directly. Every node
 * owns one PerfCounters record; components hold a pointer to it that
 * is null until the machine is constructed with
 * MachineConfig::observe.counters set (or T3DSIM_COUNTERS in the
 * environment, which can add the channel but never remove it). Bump
 * sites go through the T3D_COUNT macros, so a disabled run costs one
 * predicted branch per site. PerfCounters is the only event count:
 * components keep no private tallies.
 *
 * Counters are host-side bookkeeping only: bumping them never reads
 * or advances a Clock, so enabling them cannot perturb simulated
 * timing (pinned by tests/splitc/obs_invariance_test.cc).
 */

#ifndef T3DSIM_PROBES_COUNTERS_HH
#define T3DSIM_PROBES_COUNTERS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/json_writer.hh"
#include "sim/types.hh"

namespace t3dsim::probes
{

/**
 * The counter taxonomy: X(field, unit, bump site, paper artifact).
 * docs/OBSERVABILITY.md documents each row; keep the two in sync.
 */
#define T3D_PERF_COUNTERS(X)                                                \
    X(l1Hits, "loads", "alpha/core.cc loadBytes()", "Fig. 1")               \
    X(l1Misses, "loads", "alpha/core.cc loadBytes()", "Fig. 1")             \
    X(tlbMisses, "translations", "alpha/tlb.cc accessScan()", "Fig. 1")     \
    X(wbMerges, "stores", "alpha/write_buffer.cc write()", "Fig. 2")        \
    X(wbStalls, "stores", "alpha/write_buffer.cc write()", "Fig. 2")        \
    X(wbStallCycles, "cycles", "alpha/write_buffer.cc write()", "Fig. 2")   \
    X(wbRetires, "lines", "alpha/write_buffer.cc retireCompleted()",        \
      "Fig. 2")                                                             \
    X(dramPageHits, "accesses", "mem/dram.cc access()", "Fig. 1")           \
    X(dramPageMisses, "accesses", "mem/dram.cc access()", "Fig. 1")         \
    X(annexHits, "accesses", "splitc/proc.cc annexFor()", "Tab. §3")        \
    X(annexFaults, "updates", "shell/shell.cc setAnnex()", "Tab. §3")       \
    X(prefetchIssues, "requests", "shell/prefetch.cc issue()", "Fig. 6")    \
    X(prefetchDrains, "pops", "shell/prefetch.cc pop()", "Fig. 6")          \
    X(prefetchFullStalls, "drains", "splitc/proc.cc getU64()", "Fig. 6")    \
    X(bltTransfers, "transfers", "shell/blt.cc invoke()", "Fig. 8")         \
    X(bltSetupCycles, "cycles", "shell/blt.cc invoke()", "Tab. §6.3")       \
    X(bltTransferCycles, "cycles", "shell/blt.cc start*()", "Fig. 8")       \
    X(fetchIncRoundTrips, "ops",                                            \
      "shell/remote_engine.cc fetchInc() + splitc/proc.cc fetchInc()",      \
      "Tab. §7")                                                            \
    X(barriers, "barriers", "splitc/proc.cc startBarrier()", "§7.5")        \
    X(barrierWaitCycles, "cycles", "splitc/proc.cc noteBarrierComplete()",  \
      "§7.5")                                                               \
    X(msgSends, "messages", "shell/remote_engine.cc sendMessage()",         \
      "Tab. §7")                                                            \
    X(msgInterrupts, "messages", "shell/msg_queue.cc dequeue()", "Tab. §7") \
    X(msgSpills, "messages", "shell/msg_queue.cc deliver()", "§7.3")        \
    X(prefetchSpills, "requests", "shell/prefetch.cc issue()", "Fig. 6")    \
    X(bltEngineStalls, "stalls", "shell/blt.cc invoke()", "§6.2")           \
    X(amOverflows, "deposits", "splitc/proc.cc amDeposit()", "§7.4")        \
    X(remoteReads, "reads", "shell/remote_engine.cc read()", "Fig. 4")      \
    X(remoteWriteLines, "lines",                                            \
      "shell/remote_engine.cc injectWriteLine()", "Fig. 5/7")               \
    X(torusHops, "hops", "machine/machine.cc transitCycles()", "Fig. 4")

/** Static description of one counter (for reports and docs). */
struct CounterInfo
{
    const char *name;
    const char *unit;
    const char *site;
    const char *paper;
};

/** One node's hardware event counters. Plain data; zero-initialized. */
struct PerfCounters
{
#define T3D_PERF_COUNTER_FIELD(name, unit, site, paper)                     \
    std::uint64_t name = 0;
    T3D_PERF_COUNTERS(T3D_PERF_COUNTER_FIELD)
#undef T3D_PERF_COUNTER_FIELD

    /** Pointer-to-member table, parallel to infos(). */
    static constexpr std::array memberTable = {
#define T3D_PERF_COUNTER_MEMBER(name, unit, site, paper)                    \
    &PerfCounters::name,
        T3D_PERF_COUNTERS(T3D_PERF_COUNTER_MEMBER)
#undef T3D_PERF_COUNTER_MEMBER
    };

    static constexpr std::size_t numCounters = memberTable.size();

    /** Name/unit/site/paper-artifact rows, in field order. */
    static const std::array<CounterInfo, numCounters> &infos();

    std::uint64_t value(std::size_t i) const { return this->*memberTable[i]; }
    void setValue(std::size_t i, std::uint64_t v) { this->*memberTable[i] = v; }

    PerfCounters &
    operator+=(const PerfCounters &o)
    {
        for (auto m : memberTable)
            this->*m += o.*m;
        return *this;
    }

    bool operator==(const PerfCounters &) const = default;
};

/** Sum of per-PE counter records (machine-wide totals). */
PerfCounters aggregate(const std::vector<PerfCounters> &per_pe);

/**
 * Torus routing statistics collected alongside the per-node
 * counters (net::Torus::recordRoute): per-dimension traversal
 * totals and per-link occupancy.
 */
struct TorusLinkStats
{
    std::uint32_t dx = 1, dy = 1, dz = 1;

    /** Total link traversals along each dimension. */
    std::array<std::uint64_t, 3> dimTraversals{};

    /**
     * Traversals of the link leaving node n along dimension d, at
     * index n * 3 + d (both ring directions combined). Empty when no
     * route was ever recorded.
     */
    std::vector<std::uint64_t> linkTraversals;
};

/** The full counter taxonomy of @p c as one JSON object, keyed by
 *  counter name in taxonomy order. */
void writeCounterObject(
    sim::JsonWriter &w, const PerfCounters &c,
    sim::JsonWriter::Layout layout = sim::JsonWriter::Layout::Inline);

/**
 * Machine-wide counter report as JSON: schema, totals, per-PE
 * records, and (when @p torus is non-null) the routing statistics.
 */
void writeCountersJson(std::ostream &os,
                       const std::vector<PerfCounters> &per_pe,
                       const TorusLinkStats *torus = nullptr);

/** Counter report as CSV: one row per PE plus a "total" row. */
void writeCountersCsv(std::ostream &os,
                      const std::vector<PerfCounters> &per_pe);

/** Per-run observability switches (part of machine::MachineConfig). */
struct ObsConfig
{
    /** Collect per-node PerfCounters (and torus link statistics). */
    bool counters = false;

    /** Record shell events into a TraceSink. */
    bool trace = false;

    /** If non-empty, write the counter JSON report here when the
     *  splitc::Scheduler finishes a run (Machine::flushObservability). */
    std::string countersPath;

    /** If non-empty, write the Chrome trace JSON here at flush. */
    std::string tracePath;

    /** Upper bound on recorded trace events (memory/file safety on
     *  full-size runs); excess events are counted as dropped. */
    std::size_t traceEventCap = 1u << 20;

    /**
     * Environment additions, applied by the Machine constructor.
     * T3DSIM_COUNTERS / T3DSIM_TRACE = "1" switch the channel on with
     * the dump path t3dsim.{counters,trace}.json; any other value but
     * "0" switches it on and is the dump path. A path @p base already
     * names is kept: it is the one the program reports. Unset, empty
     * or "0" leave @p base as it is: the environment never switches a
     * channel off, and a channel the config enables without a path
     * keeps in-process records only.
     */
    static ObsConfig fromEnv(ObsConfig base);
};

} // namespace t3dsim::probes

/**
 * Counter bump macros. `ctr` is a (possibly null) PerfCounters
 * pointer; a null pointer makes the bump vanish. Never touches
 * simulated time.
 */
#define T3D_COUNT(ctr, field)                                               \
    do {                                                                    \
        if (ctr)                                                            \
            ++(ctr)->field;                                                 \
    } while (0)

#define T3D_COUNT_ADD(ctr, field, n)                                        \
    do {                                                                    \
        if (ctr)                                                            \
            (ctr)->field += (n);                                            \
    } while (0)

/** Guarded call on a (possibly null) TraceSink pointer. */
#define T3D_TRACE(sink, call)                                               \
    do {                                                                    \
        if (sink)                                                           \
            (sink)->call;                                                   \
    } while (0)

#endif // T3DSIM_PROBES_COUNTERS_HH
