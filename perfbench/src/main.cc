/**
 * @file
 * perfbench_harness: runs one workload for a fixed host time and
 * writes every pass's raw measurements as one JSON document; run.py
 * turns them into the benchmark's metrics.
 *
 *   perfbench_harness --workload W --seed N --seconds S --trace 0|1
 *                     --out FILE [--spans FILE] [--also W2,W3]
 *       Untraced: as many passes of W as fit in S seconds (at least
 *       one). Traced: the layer probe table, then as many
 *       untraced/traced pass pairs of W as fit in S seconds, then one
 *       traced pass of every --also workload; spans go to --spans.
 *
 *   perfbench_harness --check-dags --seed N
 *       Print the content hash of every generated serve request
 *       graph after validating and lowering it at servePes PEs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "dag.hh"
#include "layer_probes.hh"
#include "model/json.hh"
#include "taskgraph/graph.hh"
#include "taskgraph/lower.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string out;
    std::string spans;
    std::vector<std::string> also;
    bool checkDags = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check-dags") {
            args.checkDags = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        if (arg == "--workload") {
            args.workload = value;
        } else if (arg == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            args.trace = value == "1";
        } else if (arg == "--out") {
            args.out = value;
        } else if (arg == "--spans") {
            args.spans = value;
        } else if (arg == "--also") {
            std::stringstream ss(value);
            for (std::string w; std::getline(ss, w, ',');)
                if (!w.empty())
                    args.also.push_back(w);
        } else {
            return false;
        }
    }
    return true;
}

/** Strings written here are identifiers, numbers and hex hashes. */
std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writeJob(std::ostream &os, const JobRecord &j)
{
    os << "{\"key\":" << quoted(j.key) << ",\"kind\":" << quoted(j.kind)
       << ",\"ms\":" << number(j.ms) << ",\"cycles\":" << j.cycles
       << ",\"pes\":" << j.pes << ",\"checksum\":" << quoted(j.checksum)
       << ",\"group\":" << quoted(j.group)
       << ",\"ok\":" << (j.ok ? "true" : "false")
       << ",\"hit\":" << (j.cacheHit ? "true" : "false") << "}";
}

void
writePass(std::ostream &os, const std::string &workload, bool traced,
          const PassRecord &p)
{
    os << "{\"workload\":" << quoted(workload)
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"wall_s\":" << number(p.wallS)
       << ",\"setup_s\":" << number(p.setupS) << ",\"layers\":{";
    bool first = true;
    for (const auto &[name, value] : p.layers) {
        os << (first ? "" : ",") << quoted(name) << ":" << number(value);
        first = false;
    }
    os << "},\"counters\":";
    if (p.countersValid) {
        const auto &infos = t3dsim::probes::PerfCounters::infos();
        os << "{";
        for (std::size_t i = 0; i < infos.size(); ++i)
            os << (i ? "," : "") << quoted(infos[i].name) << ":"
               << p.counters.value(i);
        os << "}";
    } else {
        os << "null";
    }
    os << ",\"jobs\":[";
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
        os << (i ? ",\n" : "\n");
        writeJob(os, p.jobs[i]);
    }
    os << "]}";
}

double
peakRssMb()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

/** Build provenance; refuses builds whose timings mean nothing. */
bool
checkBuild(std::ostream &os)
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    const std::string sanitize = PERFBENCH_SANITIZE;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"build_type\":" << quoted(type)
       << ",\"ipo\":" << quoted(PERFBENCH_IPO)
       << ",\"counters_compiled\":" << quoted(PERFBENCH_COUNTERS)
       << ",\"sanitize\":" << quoted(sanitize)
       << ",\"compiler\":" << quoted(PERFBENCH_COMPILER) << "}";
    const bool optimised = type == "Release" || type == "RelWithDebInfo" ||
                           type == "MinSizeRel";
    const bool plain = sanitize == "OFF" || sanitize.empty();
    if (!optimised || !plain) {
        std::cerr << "perfbench: refusing a " << type << " build with "
                  << "sanitizer " << sanitize << "\n";
        return false;
    }
    return true;
}

int
checkDags(std::uint64_t seed)
{
    for (const GenJob &job : generateJobs(seed)) {
        std::string err;
        const t3dsim::model::Json doc = t3dsim::model::Json::parse(job.line,
                                                                   &err);
        t3dsim::taskgraph::TaskGraph graph;
        t3dsim::taskgraph::Plan plan;
        t3dsim::taskgraph::LowerOptions options;
        options.pes = servePes;
        if (!err.empty() ||
            !t3dsim::taskgraph::TaskGraph::parse(doc["graph"], graph, err) ||
            !graph.validate(servePes, err) ||
            !t3dsim::taskgraph::Plan::build(graph, options, plan, err)) {
            std::cout << "invalid " << err << "\n";
            return 1;
        }
        std::cout << (job.predict ? "predict " : "simulate ")
                  << graph.contentHash() << " " << job.line.size() << " "
                  << plan.levels << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench_harness --workload W --seed N "
                     "--seconds S --trace 0|1 --out FILE [--spans FILE] "
                     "[--also W,...] | --check-dags --seed N\n";
        return 2;
    }
    // Only the benchmark decides observability and host threads.
    for (const char *var :
         {"T3DSIM_COUNTERS", "T3DSIM_TRACE", "T3DSIM_HOST_THREADS"})
        unsetenv(var);
    if (args.checkDags)
        return checkDags(args.seed);

    std::ostringstream provenance;
    if (!checkBuild(provenance))
        return 3;
    std::unique_ptr<Workload> workload = makeWorkload(args.workload,
                                                      args.seed);
    if (!workload || args.out.empty()) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "' or no --out\n";
        return 2;
    }

    Tracer off(false);
    Tracer tracer(args.trace);
    std::ostringstream passes;
    std::map<std::string, double> probes;
    std::size_t count = 0;
    const auto add = [&](const std::string &name, bool traced,
                         const PassRecord &rec) {
        passes << (count++ ? ",\n" : "\n");
        writePass(passes, name, traced, rec);
    };

    if (args.trace)
        probes = runLayerProbes(tracer);
    // Start another repetition only if one as long as the longest so
    // far still ends within --seconds.
    const double t0 = nowS();
    double longest = 0;
    do {
        const double start = nowS();
        add(args.workload, false, workload->pass(off, false));
        if (args.trace) {
            PassRecord rec = workload->pass(tracer, true);
            workload->replay(tracer, rec);
            add(args.workload, true, rec);
        }
        longest = std::max(longest, nowS() - start);
    } while (nowS() - t0 + longest <= args.seconds);
    std::vector<JobRecord> checks = workload->verify();

    for (const std::string &name : args.also) {
        std::unique_ptr<Workload> other = makeWorkload(name, args.seed);
        if (!other) {
            std::cerr << "perfbench: unknown workload '" << name << "'\n";
            return 2;
        }
        PassRecord rec = other->pass(tracer, true);
        other->replay(tracer, rec);
        add(name, true, rec);
        for (JobRecord &check : other->verify())
            checks.push_back(std::move(check));
    }

    if (args.trace && !args.spans.empty()) {
        std::ofstream spans(args.spans);
        tracer.writeChromeJson(spans);
    }

    std::ofstream out(args.out);
    out << "{\"provenance\":" << provenance.str()
        << ",\"peak_rss_mb\":" << number(peakRssMb()) << ",\"probes\":{";
    bool first = true;
    for (const auto &[name, value] : probes) {
        out << (first ? "" : ",") << quoted(name) << ":" << number(value);
        first = false;
    }
    out << "},\"verify\":[";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        out << (i ? "," : "");
        writeJob(out, checks[i]);
    }
    out << "],\"passes\":[" << passes.str() << "]}\n";
    return out ? 0 : 1;
}
