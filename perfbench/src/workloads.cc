#include "workloads.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "dag.hh"
#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "model/json.hh"
#include "model/primitives.hh"
#include "taskgraph/graph.hh"
#include "taskgraph/lower.hh"
#include "taskgraph/predict.hh"
#include "taskgraph/run.hh"
#include "taskgraph/service.hh"

namespace perfbench
{

namespace
{

using namespace t3dsim;

/**
 * Every run uses the sequential scheduler, never one chosen by the
 * environment. The host-parallel scheduler needs all host cores at
 * once, which on a shared host makes its timings swing by a third
 * from run to run.
 */
splitc::SplitcConfig
sequential()
{
    splitc::SplitcConfig config;
    config.hostThreads = -1;
    return config;
}

machine::MachineConfig
machineConfig(std::uint32_t pes, bool observe)
{
    machine::MachineConfig config = machine::MachineConfig::t3d(pes);
    config.observe.counters = observe;
    return config;
}

std::string
exactDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Set-up split from outside a library run. The library builds its
 * machine and plan inside one call, so the benchmark times the same
 * construction, on the same configuration, next to the runs.
 */
struct SetupSplit
{
    double ctor = 0;
    double build = 0;     ///< Graph::build / Plan::build
    double reference = 0; ///< qcd::Plan::reference
    double dtor = 0;
    double modeledBytesPerPe = 0;

    double setup() const { return ctor + build + reference; }

    /** Count this replica as the set-up of one run (one replica may
     *  stand for several runs of one configuration). */
    void
    addTo(PassRecord &rec) const
    {
        rec.setupS += setup();
        rec.layers["machine.ctor_s"] += ctor;
        rec.layers["machine.dtor_s"] += dtor;
        double &bytes = rec.layers["machine.modeled_bytes_per_pe"];
        bytes = std::max(bytes, modeledBytesPerPe);
    }
};

/** @p build(machine, split, parent) runs and times the plan build. */
template <typename BuildFn>
SetupSplit
replicateSetup(Tracer &tracer, std::int64_t parent,
               const machine::MachineConfig &config, BuildFn &&build)
{
    Span replica(tracer, "setup.replica", parent);
    SetupSplit split;
    Span ctor(tracer, "machine.ctor", replica.id());
    auto machine = std::make_unique<machine::Machine>(config);
    split.ctor = ctor.stop();
    build(*machine, split, replica.id());
    split.modeledBytesPerPe =
        double(machine->residentModelBytes()) / config.numPes;
    Span dtor(tracer, "machine.dtor", replica.id());
    machine.reset();
    split.dtor = dtor.stop();
    return split;
}

/** EM3D sweeps: Figure 9 at paper scale, and the 16K-PE weak case. */
class Em3dSweep : public Workload
{
  public:
    Em3dSweep(std::string name, em3d::Config config,
              std::vector<double> fractions,
              std::vector<em3d::Version> versions, std::uint32_t pes)
        : _name(std::move(name)), _config(config),
          _fractions(std::move(fractions)), _versions(std::move(versions)),
          _pes(pes)
    {
    }

    PassRecord
    pass(Tracer &tracer, bool observe) override
    {
        PassRecord rec;
        Span pass(tracer, "pass." + _name);
        const machine::MachineConfig mc = machineConfig(_pes, observe);
        std::vector<em3d::Config> configs;
        std::vector<SetupSplit> splits;
        for (double fraction : _fractions) {
            em3d::Config &cfg = configs.emplace_back(_config);
            cfg.remoteFraction = fraction;
            splits.push_back(replicateSetup(
                tracer, pass.id(), mc,
                [&](machine::Machine &m, SetupSplit &s, std::int64_t id) {
                    Span build(tracer, "em3d.graph_build", id);
                    const auto graph = em3d::Graph::build(m, cfg);
                    s.build = build.stop();
                }));
        }
        // Version-major order: the runs of one fraction, which take
        // similar times, are spread over the whole pass, so a slow
        // second of the host cannot set a latency percentile alone.
        double graph_build = 0;
        for (em3d::Version v : _versions) {
            for (std::size_t f = 0; f < configs.size(); ++f) {
                const em3d::Config &cfg = configs[f];
                const SetupSplit &split = splits[f];
                char group[16];
                std::snprintf(group, sizeof group, "%.1f",
                              cfg.remoteFraction);
                const std::string key =
                    std::string(group) + "/" + em3d::versionName(v);
                split.addTo(rec);
                graph_build += split.build;

                Span job(tracer, "em3d.run", pass.id());
                const em3d::Result r =
                    em3d::run(cfg, v, mc, sequential());
                const double s = job.stop();
                rec.wallS += s;
                rec.jobs.push_back({key, "run", s * 1e3, r.elapsed, _pes,
                                    exactDouble(r.checksum), group, true,
                                    false});
                if (r.countersValid) {
                    rec.counters += r.counters;
                    rec.countersValid = true;
                }
            }
        }
        rec.layers["em3d.graph_build_s"] = graph_build;
        rec.layers["em3d.simulate_s"] = rec.wallS - rec.setupS;
        return rec;
    }

  private:
    std::string _name;
    em3d::Config _config;
    std::vector<double> _fractions;
    std::vector<em3d::Version> _versions;
    std::uint32_t _pes;
};

/** The bsort and qcd optimisation ladders, five rungs each. */
class Ladders : public Workload
{
  public:
    explicit Ladders(std::uint64_t seed)
    {
        _bsort.keysPerPe = 512;
        // A larger regular sample than the app's default keeps bucket
        // imbalance, and with it the simulated cycle count, nearly
        // independent of the seed.
        _bsort.oversample = 64;
        _bsort.seed = seed;
        _qcd.lx = _qcd.ly = _qcd.lz = _qcd.lt = 8;
        _qcd.seed = seed;
    }

    PassRecord
    pass(Tracer &tracer, bool observe) override
    {
        PassRecord rec;
        Span pass(tracer, "pass.ladders");
        ladder(tracer, pass.id(), rec, "bsort", bsortPes, observe,
               [&](machine::Machine &m, SetupSplit &s, std::int64_t id) {
                   Span build(tracer, "apps.bsort.plan_build", id);
                   const auto plan = apps::bsort::Plan::build(m, _bsort);
                   s.build = build.stop();
               },
               [&](apps::Variant v, const machine::MachineConfig &mc) {
                   const auto r =
                       apps::bsort::run(_bsort, v, mc, sequential());
                   return std::pair(r, r.sorted);
               });
        ladder(tracer, pass.id(), rec, "qcd", qcdPes, observe,
               [&](machine::Machine &m, SetupSplit &s, std::int64_t id) {
                   Span build(tracer, "apps.qcd.plan_build", id);
                   const auto plan = apps::qcd::Plan::build(m, _qcd);
                   s.build = build.stop();
                   Span ref(tracer, "apps.qcd.reference", id);
                   [[maybe_unused]] const auto field = plan.reference();
                   s.reference = ref.stop();
               },
               [&](apps::Variant v, const machine::MachineConfig &mc) {
                   const auto r = apps::qcd::run(_qcd, v, mc, sequential());
                   return std::pair(r, r.converged);
               });
        return rec;
    }

  private:
    /**
     * Every rung of one app, each after its own set-up replica.
     * @p run(variant, config) returns (result, the app's own verdict).
     */
    template <typename BuildFn, typename RunFn>
    void
    ladder(Tracer &tracer, std::int64_t parent, PassRecord &rec,
           const std::string &app, std::uint32_t pes, bool observe,
           BuildFn &&build, RunFn &&run)
    {
        const machine::MachineConfig mc = machineConfig(pes, observe);
        const std::string layer = "apps." + app;
        for (apps::Variant v : apps::allVariants) {
            const std::string key = app + "/" + apps::variantName(v);
            const SetupSplit split =
                replicateSetup(tracer, parent, mc, build);
            split.addTo(rec);
            rec.layers[layer + ".plan_build_s"] += split.build;
            if (split.reference > 0)
                rec.layers[layer + ".reference_s"] += split.reference;

            Span job(tracer, layer + ".run", parent);
            const auto [r, valid] = run(v, mc);
            const double s = job.stop();
            rec.wallS += s;
            rec.layers[layer + ".run_s"] += s;
            rec.jobs.push_back({key, "run", s * 1e3, r.elapsed, pes,
                                std::to_string(r.checksum), app, valid,
                                false});
            if (r.countersValid) {
                rec.counters += r.counters;
                rec.countersValid = true;
            }
        }
    }

    static constexpr std::uint32_t bsortPes = 256;
    static constexpr std::uint32_t qcdPes = 64;
    apps::bsort::Config _bsort;
    apps::qcd::Config _qcd;
};

/**
 * A closed loop against an in-process JobService: one client thread
 * keeps `outstanding` requests in flight and submits the next one
 * whenever an answer arrives.
 */
class Serve : public Workload
{
  public:
    explicit Serve(std::uint64_t seed)
        : _jobs(generateJobs(seed)),
          _model(model::defaultCostModel())
    {
    }

    PassRecord
    pass(Tracer &tracer, bool /*observe*/) override
    {
        PassRecord rec;
        Span pass(tracer, "pass.serve");
        taskgraph::ServiceOptions options;
        options.workers = workers;
        options.model = _model;

        // Start-up takes tens of microseconds; the median of several
        // keeps one slow thread spawn from setting the figure.
        std::vector<double> startups;
        for (int i = 0; i < extraStartups; ++i) {
            Span start(tracer, "service.start", pass.id());
            taskgraph::JobService idle(options, [](std::uint64_t,
                                                   const std::string &) {});
            startups.push_back(start.stop());
        }

        const std::size_t n = _jobs.size();
        std::mutex m;
        std::condition_variable answered;
        std::size_t done = 0;
        std::vector<double> submitted(n), finished(n);
        _responses.assign(n, std::string());

        Span run(tracer, "service.run", pass.id());
        const std::int64_t run_id = run.id();
        {
            Span start(tracer, "service.start", run_id);
            auto service = std::make_unique<taskgraph::JobService>(
                options, [&](std::uint64_t tag, const std::string &line) {
                    const double t = nowS();
                    tracer.add("service.job", submitted[tag], t, run_id,
                               std::int64_t(tag));
                    std::lock_guard<std::mutex> lock(m);
                    _responses[tag] = line;
                    finished[tag] = t;
                    ++done;
                    answered.notify_one();
                });
            startups.push_back(start.stop());
            for (std::size_t next = 0; next < n; ++next) {
                {
                    std::unique_lock<std::mutex> lock(m);
                    answered.wait(lock,
                                  [&] { return next < done + outstanding; });
                }
                submitted[next] = nowS();
                service->submit(_jobs[next].line, next);
            }
            service->drain();
            const auto stats = service->stats();
            rec.layers["service.cache_hit_ratio"] =
                stats.jobs ? double(stats.cacheHits) / double(stats.jobs)
                           : 0;
            Span stop(tracer, "service.stop", run_id);
            service.reset(); // joins the workers
        }
        rec.wallS = run.stop();
        rec.setupS = median(startups);

        _latencyS.assign(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            _latencyS[i] = finished[i] - submitted[i];
            rec.jobs.push_back(record(i, _latencyS[i]));
        }
        return rec;
    }

    std::vector<JobRecord>
    verify() override
    {
        // Bit-identity against the standalone path on a fixed sample.
        // The stride is odd, so the sample cycles through every job
        // index modulo 8: simulate misses, predict jobs (i % 4 == 1)
        // and repeats answered from the cache (i % 8 == 7).
        std::vector<JobRecord> checks;
        for (std::size_t i = 0; i < _jobs.size(); i += 13) {
            std::string served = _responses[i];
            const std::string hit = "\"cache\":\"hit\"";
            if (const auto at = served.find(hit); at != std::string::npos)
                served.replace(at, hit.size(), "\"cache\":\"miss\"");
            JobRecord check;
            check.key = "standalone/j" + std::to_string(i);
            check.kind = _jobs[i].predict ? "predict" : "simulate";
            check.ok = served == taskgraph::JobService::runStandalone(
                                     _jobs[i].line, _model, "");
            checks.push_back(check);
        }
        return checks;
    }

    void
    replay(Tracer &tracer, PassRecord &rec) override
    {
        Span root(tracer, "serve.replay");
        std::vector<double> parse, validate, lower, predict, simulate,
            wait;
        double ctor = 0, dtor = 0, bytes = 0;
        for (std::size_t i = 0; i < _jobs.size(); ++i) {
            const auto job_id = std::int64_t(i);
            Span job(tracer, "taskgraph.job", root.id(), job_id);
            std::string err;
            taskgraph::TaskGraph graph;
            Span p(tracer, "taskgraph.parse", job.id(), job_id);
            const model::Json doc = model::Json::parse(_jobs[i].line, &err);
            const bool parsed =
                err.empty() && taskgraph::TaskGraph::parse(doc["graph"], graph,
                                                           err);
            double exec = p.stop();
            parse.push_back(exec);

            Span v(tracer, "taskgraph.validate", job.id(), job_id);
            const bool valid = parsed && graph.validate(servePes, err);
            validate.push_back(v.stop());
            exec += validate.back();

            taskgraph::LowerOptions options;
            options.pes = servePes;
            taskgraph::Plan plan;
            Span l(tracer, "taskgraph.lower", job.id(), job_id);
            const bool lowered =
                valid && taskgraph::Plan::build(graph, options, plan, err);
            lower.push_back(l.stop());
            exec += lower.back();

            if (lowered && _jobs[i].predict) {
                Span pr(tracer, "taskgraph.predict", job.id(), job_id);
                [[maybe_unused]] const auto prediction =
                    taskgraph::predictGraph(graph, plan, _model);
                predict.push_back(pr.stop());
                exec += predict.back();
            } else if (lowered && !rec.jobs[i].cacheHit) {
                // simulate() builds its own machine: time the same
                // construction beside it, as for the EM3D runs.
                const SetupSplit split = replicateSetup(
                    tracer, job.id(), machineConfig(servePes, false),
                    [](machine::Machine &, SetupSplit &, std::int64_t) {});
                ctor += split.ctor;
                dtor += split.dtor;
                bytes = std::max(bytes, split.modeledBytesPerPe);
                Span s(tracer, "taskgraph.simulate", job.id(), job_id);
                taskgraph::RunOptions run_options;
                run_options.hostThreads = -1;
                [[maybe_unused]] const auto result =
                    taskgraph::simulate(graph, plan, run_options);
                simulate.push_back(s.stop());
                exec += simulate.back();
            }
            wait.push_back(std::max(0.0, _latencyS[i] - exec));
        }
        rec.layers["taskgraph.parse_us"] = median(parse) * 1e6;
        rec.layers["taskgraph.validate_us"] = median(validate) * 1e6;
        rec.layers["taskgraph.lower_us"] = median(lower) * 1e6;
        rec.layers["taskgraph.predict_us"] = median(predict) * 1e6;
        rec.layers["taskgraph.simulate_ms"] = median(simulate) * 1e3;
        rec.layers["service.queue_wait_ms"] = median(wait) * 1e3;
        rec.layers["machine.ctor_s"] = ctor;
        rec.layers["machine.dtor_s"] = dtor;
        rec.layers["machine.modeled_bytes_per_pe"] = bytes;
    }

  private:
    // Twice as many requests in flight as workers, so a worker that
    // finishes finds the next request queued: latency then counts
    // queueing and execution, not how long a shared host takes to
    // wake an idle thread. Two workers leave the 4-vCPU host room for
    // the client thread and for other tenants.
    static constexpr unsigned workers = 2;
    static constexpr std::size_t outstanding = 4;
    static constexpr int extraStartups = 8;

    JobRecord
    record(std::size_t i, double latency_s) const
    {
        const GenJob &job = _jobs[i];
        JobRecord rec;
        rec.key = "j" + std::to_string(i);
        rec.kind = job.predict ? "predict" : "simulate";
        rec.ms = latency_s * 1e3;
        rec.pes = servePes;
        std::string err;
        const model::Json doc = model::Json::parse(_responses[i], &err);
        rec.ok = err.empty() && doc["ok"].isBool() && doc["ok"].boolean();
        rec.cacheHit = doc["cache"].isString() && doc["cache"].str() == "hit";
        const model::Json &cycles =
            doc[job.predict ? "predicted_cycles" : "makespan_cycles"];
        rec.cycles = cycles.isNumber() ? std::uint64_t(cycles.number()) : 0;
        if (!job.predict) {
            const std::int64_t graph =
                job.repeatOf >= 0 ? job.repeatOf : std::int64_t(i);
            rec.group = "g" + std::to_string(graph);
            const model::Json &sum = doc["checksum"];
            rec.checksum = sum.isString() ? sum.str() : "";
        }
        return rec;
    }

    std::vector<GenJob> _jobs;
    model::CostModel _model;
    std::vector<std::string> _responses;
    std::vector<double> _latencyS;
};

em3d::Config
em3dConfig(std::uint64_t seed, std::uint32_t nodes_per_pe,
           std::uint32_t degree, int iterations)
{
    em3d::Config config;
    config.nodesPerPe = nodes_per_pe;
    config.degree = degree;
    config.iterations = iterations;
    config.seed = seed;
    return config;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "fig9") {
        return std::make_unique<Em3dSweep>(
            name, em3dConfig(seed, 500, 20, 1),
            std::vector<double>{0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0},
            std::vector<em3d::Version>(std::begin(em3d::allVersions),
                                       std::end(em3d::allVersions)),
            32);
    }
    if (name == "weak16k") {
        return std::make_unique<Em3dSweep>(
            name, em3dConfig(seed, 32, 4, 2), std::vector<double>{0.2},
            std::vector<em3d::Version>{em3d::Version::Get,
                                       em3d::Version::Put,
                                       em3d::Version::Bulk},
            16384);
    }
    if (name == "ladders")
        return std::make_unique<Ladders>(seed);
    if (name == "serve")
        return std::make_unique<Serve>(seed);
    return nullptr;
}

} // namespace perfbench
