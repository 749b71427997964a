#include "taskgraph/service.hh"

#include <sstream>

#include "model/json.hh"
#include "sim/hash.hh"
#include "sim/json_writer.hh"
#include "taskgraph/graph.hh"
#include "taskgraph/predict.hh"
#include "taskgraph/run.hh"

namespace t3dsim::taskgraph
{

namespace
{

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One parsed request line. */
struct Request
{
    std::string id = "?";
    bool predict = false;
    std::uint32_t pes = 8;
    bool trace = false;
    TaskGraph graph;
    Plan plan;
    std::uint64_t graphHash = 0;
    std::uint64_t machineHash = 0;
};

/** The machine half of the cache key: everything outside the graph
 *  that shapes the answer (PE count + the lowering thresholds; the
 *  MachineConfig::t3d preset itself is fixed per build). */
std::uint64_t
machineHashFor(const LowerOptions &opt)
{
    std::ostringstream os;
    os << "m1|" << opt.pes << '|' << opt.storeMaxBytes << '|'
       << opt.putMaxBytes << '|' << opt.bltCrossoverBytes << '|'
       << opt.flopCycles;
    const std::string s = os.str();
    return hash::fnv1aBytes(s.data(), s.size());
}

bool
parseRequest(const std::string &line, Request &req, std::string &err)
{
    std::string parse_err;
    const model::Json doc = model::Json::parse(line, &parse_err);
    if (!parse_err.empty()) {
        err = "bad JSON: " + parse_err;
        return false;
    }
    if (!doc.isObject()) {
        err = "request must be a JSON object";
        return false;
    }
    if (doc["id"].isString())
        req.id = doc["id"].str();
    if (doc.has("mode")) {
        const model::Json &mode = doc["mode"];
        if (!mode.isString()) {
            err = "'mode' must be a string (simulate|predict)";
            return false;
        }
        if (mode.str() == "predict") {
            req.predict = true;
        } else if (mode.str() != "simulate") {
            err = "unknown mode '" + mode.str() + "' (simulate|predict)";
            return false;
        }
    }
    if (doc.has("pes")) {
        // Range before the cast: casting a NaN or a double past 2^32
        // is undefined.
        const model::Json &pes = doc["pes"];
        if (!pes.isNumber() ||
            !(pes.number() >= 1 && pes.number() <= 65536) ||
            pes.number() != static_cast<double>(
                                static_cast<std::uint32_t>(pes.number()))) {
            err = "'pes' must be an integer in [1, 65536]";
            return false;
        }
        req.pes = static_cast<std::uint32_t>(pes.number());
    }
    if (doc.has("trace")) {
        if (!doc["trace"].isBool()) {
            err = "'trace' must be true or false";
            return false;
        }
        req.trace = doc["trace"].boolean();
    }

    if (!doc.has("graph")) {
        err = "missing 'graph'";
        return false;
    }
    if (!TaskGraph::parse(doc["graph"], req.graph, err))
        return false;
    if (!req.graph.validate(req.pes, err))
        return false;

    LowerOptions opt;
    opt.pes = req.pes;
    if (!Plan::build(req.graph, opt, req.plan, err))
        return false;

    req.graphHash = req.graph.contentHash();
    req.machineHash = machineHashFor(opt);
    return true;
}

/** Execute and render the response payload: one compact object
 *  whose members follow the id/cache fields. Depends only on the
 *  cache key's inputs, so cached payloads are valid for every
 *  client. */
std::string
executePayload(const Request &req, const model::CostModel &model,
               const std::string &trace_dir)
{
    std::ostringstream os;
    sim::JsonWriter w(os, sim::JsonWriter::Style::Compact);
    w.beginObject().member("mode", req.predict ? "predict" : "simulate");
    w.member("pes", req.pes).member("tasks", req.graph.tasks.size());
    w.member("edges", req.graph.edges.size());
    w.member("levels", req.plan.levels);
    w.member("graph_hash", hex64(req.graphHash));
    w.member("machine_hash", hex64(req.machineHash));

    if (req.predict) {
        const model::Prediction pred =
            predictGraph(req.graph, req.plan, model);
        w.member("predicted_cycles", std::uint64_t(pred.cycles));
        w.key("breakdown").beginObject();
        for (const auto &[term, cycles] : pred.breakdown)
            w.member(term, std::uint64_t(cycles));
        w.endObject().key("flags").beginArray();
        for (const std::string &flag : pred.flags)
            w.value(flag);
        w.endArray().endObject();
        return os.str();
    }

    RunOptions ropt;
    if (req.trace) {
        ropt.trace = true;
        if (!trace_dir.empty())
            ropt.tracePath = trace_dir + "/job-" + hex64(req.graphHash) +
                             "-" + hex64(req.machineHash) +
                             ".trace.json";
    }
    const RunResult r = simulate(req.graph, req.plan, ropt);
    w.member("makespan_cycles", r.makespanCycles);
    w.member("finish_hash", hex64(r.finishHash));
    w.member("checksum", hex64(r.checksum));
    if (req.trace) {
        w.member("trace_events", r.traceEvents);
        if (!ropt.tracePath.empty())
            w.member("trace_path", ropt.tracePath);
    }
    w.endObject();
    return os.str();
}

std::string
okResponse(const std::string &id, bool cache_hit,
           const std::string &payload)
{
    std::ostringstream os;
    sim::JsonWriter w(os, sim::JsonWriter::Style::Compact);
    w.beginObject().member("id", id).member("ok", true);
    w.member("cache", cache_hit ? "hit" : "miss").members(payload);
    w.endObject();
    return os.str();
}

} // namespace

std::string
JobService::errorResponse(const std::string &id, const std::string &err)
{
    std::ostringstream os;
    sim::JsonWriter w(os, sim::JsonWriter::Style::Compact);
    w.beginObject().member("id", id).member("ok", false);
    w.member("error", err).endObject();
    return os.str();
}

JobService::JobService(ServiceOptions options, ResponseFn on_response)
    : _options(std::move(options)), _onResponse(std::move(on_response))
{
    const unsigned workers = std::max(1u, _options.workers);
    _workers.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        _workers.emplace_back([this] { workerMain(); });
}

JobService::~JobService()
{
    {
        std::lock_guard<std::mutex> lock(_m);
        _stop = true;
    }
    _wake.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

void
JobService::submit(std::string line, std::uint64_t tag)
{
    {
        std::lock_guard<std::mutex> lock(_m);
        _queue.push_back(Job{std::move(line), tag});
        ++_inFlight;
    }
    _wake.notify_one();
}

void
JobService::reject(const std::string &err, std::uint64_t tag)
{
    {
        std::lock_guard<std::mutex> lock(_m);
        ++_stats.jobs;
        ++_stats.errors;
    }
    _onResponse(tag, errorResponse("?", err));
}

void
JobService::drain()
{
    std::unique_lock<std::mutex> lock(_m);
    _idle.wait(lock, [this] { return _inFlight == 0; });
}

JobService::Stats
JobService::stats() const
{
    std::lock_guard<std::mutex> lock(_m);
    return _stats;
}

void
JobService::workerMain()
{
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(_m);
            _wake.wait(lock, [this] { return _stop || !_queue.empty(); });
            if (_queue.empty())
                return; // _stop, and nothing left to answer
            job = std::move(_queue.front());
            _queue.pop_front();
        }
        process(job);
        {
            std::lock_guard<std::mutex> lock(_m);
            if (--_inFlight == 0)
                _idle.notify_all();
        }
    }
}

void
JobService::process(const Job &job)
{
    Request req;
    std::string err;
    if (!parseRequest(job.line, req, err)) {
        {
            std::lock_guard<std::mutex> lock(_m);
            ++_stats.jobs;
            ++_stats.errors;
        }
        _onResponse(job.tag, errorResponse(req.id, err));
        return;
    }

    const std::string key = hex64(req.graphHash) + "/" +
                            hex64(req.machineHash) +
                            (req.predict ? "/p" : "/s") +
                            (req.trace ? "/t" : "");
    std::unique_lock<std::mutex> lock(_m);
    const auto [it, leader] = _cache.try_emplace(key);
    CacheEntry &entry = it->second;
    if (leader) {
        lock.unlock();
        std::string payload =
            executePayload(req, _options.model, _options.traceDir);
        lock.lock();
        entry.payload = std::move(payload);
        entry.done = true;
        ++(req.predict ? _stats.predictions : _stats.simulations);
        _filled.notify_all();
    } else {
        _filled.wait(lock, [&entry] { return entry.done; });
        ++_stats.cacheHits;
    }
    ++_stats.jobs;
    lock.unlock();
    // done is never reset, so the payload is read without _m.
    _onResponse(job.tag, okResponse(req.id, !leader, entry.payload));
}

std::string
JobService::runStandalone(const std::string &line,
                          const model::CostModel &model,
                          const std::string &trace_dir)
{
    Request req;
    std::string err;
    if (!parseRequest(line, req, err))
        return errorResponse(req.id, err);
    return okResponse(req.id, false, executePayload(req, model, trace_dir));
}

} // namespace t3dsim::taskgraph
