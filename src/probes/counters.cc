#include "probes/counters.hh"

#include <cstdlib>
#include <ostream>
#include <string_view>

namespace t3dsim::probes
{

const std::array<CounterInfo, PerfCounters::numCounters> &
PerfCounters::infos()
{
    static const std::array<CounterInfo, numCounters> table = {{
#define T3D_PERF_COUNTER_INFO(name, unit, site, paper)                      \
    CounterInfo{#name, unit, site, paper},
        T3D_PERF_COUNTERS(T3D_PERF_COUNTER_INFO)
#undef T3D_PERF_COUNTER_INFO
    }};
    return table;
}

PerfCounters
aggregate(const std::vector<PerfCounters> &per_pe)
{
    PerfCounters total;
    for (const auto &c : per_pe)
        total += c;
    return total;
}

void
writeCounterObject(sim::JsonWriter &w, const PerfCounters &c,
                   sim::JsonWriter::Layout layout)
{
    const auto &infos = PerfCounters::infos();
    w.beginObject(layout);
    for (std::size_t i = 0; i < PerfCounters::numCounters; ++i)
        w.member(infos[i].name, c.value(i));
    w.endObject();
}

void
writeCountersJson(std::ostream &os,
                  const std::vector<PerfCounters> &per_pe,
                  const TorusLinkStats *torus)
{
    using Layout = sim::JsonWriter::Layout;
    sim::JsonWriter w(os);
    w.beginObject(Layout::Lines).member("schema", "t3dsim-counters-v1");
    w.member("pes", per_pe.size()).key("total");
    writeCounterObject(w, aggregate(per_pe), Layout::Lines);
    w.key("per_pe").beginArray(Layout::Lines);
    for (const PerfCounters &c : per_pe)
        writeCounterObject(w, c, Layout::Lines);
    w.endArray();
    if (torus) {
        w.key("torus").beginObject(Layout::Lines);
        w.key("dims").beginArray();
        w.value(torus->dx).value(torus->dy).value(torus->dz);
        w.endArray().key("dim_traversals").beginArray();
        for (std::uint64_t n : torus->dimTraversals)
            w.value(n);
        w.endArray().key("link_traversals").beginArray();
        for (std::uint64_t n : torus->linkTraversals)
            w.value(n);
        w.endArray().endObject();
    }
    w.endObject();
}

void
writeCountersCsv(std::ostream &os, const std::vector<PerfCounters> &per_pe)
{
    const auto &infos = PerfCounters::infos();
    os << "pe";
    for (const auto &info : infos)
        os << "," << info.name;
    os << "\n";
    for (std::size_t pe = 0; pe < per_pe.size(); ++pe) {
        os << pe;
        for (std::size_t i = 0; i < PerfCounters::numCounters; ++i)
            os << "," << per_pe[pe].value(i);
        os << "\n";
    }
    const PerfCounters total = aggregate(per_pe);
    os << "total";
    for (std::size_t i = 0; i < PerfCounters::numCounters; ++i)
        os << "," << total.value(i);
    os << "\n";
}

ObsConfig
ObsConfig::fromEnv(ObsConfig base)
{
    const auto apply = [](const char *var, std::string_view default_path,
                          bool &flag, std::string &path) {
        const char *env = std::getenv(var);
        const std::string_view v = env ? env : "";
        if (v.empty() || v == "0")
            return;
        flag = true;
        if (path.empty())
            path = v == "1" ? default_path : v;
    };
    apply("T3DSIM_COUNTERS", "t3dsim.counters.json", base.counters,
          base.countersPath);
    apply("T3DSIM_TRACE", "t3dsim.trace.json", base.trace,
          base.tracePath);
    return base;
}

} // namespace t3dsim::probes
