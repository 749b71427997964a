/**
 * @file
 * JobService contract: 64+ concurrent jobs answer correctly across a
 * worker pool, repeats are served from the cache without
 * re-simulating (leader/follower coalescing), cached answers are
 * byte-identical to standalone execution, a traced job writes only
 * the trace file it names, and malformed requests get typed error
 * responses.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "model/json.hh"
#include "model/primitives.hh"
#include "taskgraph/lower.hh"
#include "taskgraph/predict.hh"
#include "taskgraph/service.hh"

using namespace t3dsim;
using namespace t3dsim::taskgraph;

namespace
{

/** Thread-safe response collector keyed by submit tag. */
struct Collector
{
    std::mutex m;
    std::map<std::uint64_t, std::string> responses;

    JobService::ResponseFn
    fn()
    {
        return [this](std::uint64_t tag, const std::string &line) {
            std::lock_guard<std::mutex> lock(m);
            responses[tag] = line;
        };
    }
};

/** A two-task job; @p host_threads, when non-empty, is sent verbatim
 *  as the (ignored) "host_threads" value. */
std::string
jobLine(const std::string &id, const std::string &mode, int cycles,
        const std::string &host_threads = "")
{
    const std::string threads_field =
        host_threads.empty() ? ""
                             : ", \"host_threads\": " + host_threads;
    return "{\"id\": \"" + id + "\", \"mode\": \"" + mode +
           "\", \"pes\": 4" + threads_field +
           ", \"graph\": {\"tasks\": ["
           "{\"id\": \"a\", \"cycles\": " +
           std::to_string(cycles) +
           "}, {\"id\": \"b\", \"cycles\": 70}],"
           " \"edges\": [{\"src\": \"a\", \"dst\": \"b\","
           " \"bytes\": 256}]}}";
}

bool
contains(const std::string &s, const std::string &needle)
{
    return s.find(needle) != std::string::npos;
}

/** The "graph" object of @p edges 16-byte am edges from tasks on
 *  PE 1 into one task on PE 0: a one-sender fan-in. */
std::string
amFanInGraph(int edges)
{
    std::string tasks = R"({"id":"r","pe":0})", list;
    for (int k = 0; k < edges; ++k) {
        const std::string id = "\"s" + std::to_string(k) + "\"";
        tasks += R"(,{"id":)" + id + R"(,"pe":1})";
        list += std::string(k ? "," : "") + R"({"src":)" + id +
                R"(,"dst":"r","bytes":16,"mech":"am"})";
    }
    return R"({"tasks":[)" + tasks + R"(],"edges":[)" + list + "]}";
}

/** Submits @p graph at @p pes in both modes, then a normal job, to a
 *  two-worker pool: both modes must answer ok:false naming
 *  @p error, and the pool must go on to answer the normal job. */
void
expectRefusedThenAnswersNext(const std::string &graph, int pes,
                             const std::string &error)
{
    ServiceOptions opt;
    opt.workers = 2;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());
    std::uint64_t tag = 1;
    for (const char *mode : {"simulate", "predict"}) {
        service.submit(R"({"id":"bad","mode":")" + std::string(mode) +
                           R"(","pes":)" + std::to_string(pes) +
                           R"(,"graph":)" + graph + "}",
                       tag++);
    }
    service.submit(jobLine("next", "simulate", 60), tag);
    service.drain();

    for (std::uint64_t t = 1; t <= 2; ++t) {
        EXPECT_TRUE(contains(out.responses[t], "\"ok\":false"));
        EXPECT_TRUE(contains(out.responses[t], error)) << out.responses[t];
    }
    EXPECT_TRUE(contains(out.responses[3], "\"ok\":true"))
        << out.responses[3];
    EXPECT_EQ(service.stats().errors, 2u);
    EXPECT_EQ(service.stats().simulations, 1u);
}

/** @p line with `"trace": true` added after its "pes" member. */
std::string
tracedLine(std::string line)
{
    const std::string pes = "\"pes\": 4";
    line.insert(line.find(pes) + pes.size(), ", \"trace\": true");
    return line;
}

/** An empty directory of this process's own under the test temp
 *  dir. */
std::filesystem::path
freshDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        (name + "." + std::to_string(getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Everything past the volatile cache field: the executed payload. */
std::string
payloadOf(const std::string &response)
{
    const std::size_t at = response.find("\"mode\":");
    EXPECT_NE(at, std::string::npos) << response;
    return at == std::string::npos ? std::string{} : response.substr(at);
}

} // namespace

TEST(JobService, AnswersConcurrentBatchWithCoalescedCache)
{
    ServiceOptions opt;
    opt.workers = 8;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());

    // 64 simulate jobs over 8 distinct graphs (8 duplicates each) and
    // 16 predict jobs over 4 distinct graphs, all in flight at once.
    constexpr int kSimJobs = 64, kSimUnique = 8;
    constexpr int kPredJobs = 16, kPredUnique = 4;
    for (int i = 0; i < kSimJobs; ++i)
        service.submit(jobLine("sim" + std::to_string(i), "simulate",
                               100 + i % kSimUnique),
                       static_cast<std::uint64_t>(i));
    for (int i = 0; i < kPredJobs; ++i)
        service.submit(jobLine("pred" + std::to_string(i), "predict",
                               100 + i % kPredUnique),
                       static_cast<std::uint64_t>(1000 + i));
    service.drain();

    ASSERT_EQ(out.responses.size(),
              static_cast<std::size_t>(kSimJobs + kPredJobs));
    for (const auto &[tag, line] : out.responses)
        EXPECT_TRUE(contains(line, "\"ok\":true")) << line;

    // Duplicates answered byte-identically to their leader.
    std::map<std::string, std::string> byKey;
    for (int i = 0; i < kSimJobs; ++i) {
        const std::string key = "s" + std::to_string(i % kSimUnique);
        const std::string payload =
            payloadOf(out.responses[static_cast<std::uint64_t>(i)]);
        auto [it, fresh] = byKey.emplace(key, payload);
        if (!fresh) {
            EXPECT_EQ(it->second, payload) << key;
        }
    }

    const JobService::Stats stats = service.stats();
    EXPECT_EQ(stats.jobs,
              static_cast<std::uint64_t>(kSimJobs + kPredJobs));
    EXPECT_EQ(stats.errors, 0u);
    // Exactly one execution per distinct (graph, mode); every other
    // job was a cache hit.
    EXPECT_EQ(stats.simulations, static_cast<std::uint64_t>(kSimUnique));
    EXPECT_EQ(stats.predictions,
              static_cast<std::uint64_t>(kPredUnique));
    EXPECT_EQ(stats.cacheHits,
              static_cast<std::uint64_t>(kSimJobs - kSimUnique +
                                         kPredJobs - kPredUnique));
}

TEST(JobService, RepeatBatchShortCircuitsWithoutResimulating)
{
    ServiceOptions opt;
    opt.workers = 4;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());

    service.submit(jobLine("first", "simulate", 300), 1);
    service.drain();
    const JobService::Stats before = service.stats();
    EXPECT_EQ(before.simulations, 1u);

    for (int i = 0; i < 16; ++i)
        service.submit(jobLine("rep" + std::to_string(i), "simulate", 300),
                       static_cast<std::uint64_t>(10 + i));
    service.drain();

    const JobService::Stats after = service.stats();
    EXPECT_EQ(after.simulations, before.simulations);  // no re-runs
    EXPECT_EQ(after.cacheHits, before.cacheHits + 16);
    for (int i = 0; i < 16; ++i) {
        const std::string &line =
            out.responses[static_cast<std::uint64_t>(10 + i)];
        EXPECT_TRUE(contains(line, "\"cache\":\"hit\"")) << line;
        EXPECT_EQ(payloadOf(line), payloadOf(out.responses[1]));
    }
}

TEST(JobService, CacheIsHostThreadInvariant)
{
    ServiceOptions opt;
    opt.workers = 2;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());

    // Same graph with different host_threads values: one
    // simulation, identical payloads — the key is not part of the
    // cache key and never reaches the run.
    service.submit(jobLine("seq", "simulate", 42, "-1"), 1);
    service.drain();
    service.submit(jobLine("par", "simulate", 42, "4"), 2);
    service.drain();

    EXPECT_EQ(service.stats().simulations, 1u);
    EXPECT_EQ(payloadOf(out.responses[1]), payloadOf(out.responses[2]));
    EXPECT_TRUE(contains(out.responses[2], "\"cache\":\"hit\""));
}

TEST(JobService, IgnoresHostThreads)
{
    // host_threads is accepted and ignored: out-of-range, negative
    // and large values all answer byte-identically to a request that
    // omits the key (no undefined float-to-int conversion, no
    // per-job worker threads).
    const model::CostModel model = model::defaultCostModel();
    const std::string reference =
        JobService::runStandalone(jobLine("ht", "simulate", 55), model, "");
    EXPECT_TRUE(contains(reference, "\"ok\":true")) << reference;
    for (const char *value : {"1e20", "-7", "64"}) {
        EXPECT_EQ(JobService::runStandalone(
                      jobLine("ht", "simulate", 55, value), model, ""),
                  reference)
            << "host_threads=" << value;
    }
}

TEST(JobService, MatchesStandaloneExecution)
{
    const std::string line = jobLine("solo", "simulate", 77);
    const std::string standalone =
        JobService::runStandalone(line, model::defaultCostModel(), "");

    ServiceOptions opt;
    opt.workers = 2;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());
    service.submit(line, 1);
    service.drain();

    EXPECT_EQ(payloadOf(standalone), payloadOf(out.responses[1]));
    EXPECT_TRUE(contains(standalone, "\"makespan_cycles\":"));
    EXPECT_TRUE(contains(standalone, "\"finish_hash\":\"0x"));
    EXPECT_TRUE(contains(standalone, "\"checksum\":\"0x"));
}

TEST(JobService, TracedJobWritesItsTracePathWhateverTheEnvironment)
{
    const std::string line = tracedLine(jobLine("tr", "simulate", 66));
    const std::filesystem::path dir = freshDir("t3dsim_serve_trace");
    const model::CostModel model = model::defaultCostModel();

    const std::string unset =
        JobService::runStandalone(line, model, dir.string());
    const model::Json doc = model::Json::parse(unset);
    ASSERT_GT(doc["trace_events"].number(), 0) << unset;
    const std::filesystem::path trace = doc["trace_path"].str();
    ASSERT_TRUE(std::filesystem::exists(trace)) << unset;
    std::filesystem::remove(trace);

    // The request asks for the trace and the service names its file:
    // T3DSIM_TRACE=0 must not take the trace away, and a path in
    // T3DSIM_TRACE must not move it. Same answer, one file, written
    // where the answer says.
    const std::string env_path = (dir / "env.trace.json").string();
    for (const std::string &value : {std::string("0"), env_path}) {
        setenv("T3DSIM_TRACE", value.c_str(), 1);
        const std::string answer =
            JobService::runStandalone(line, model, dir.string());
        unsetenv("T3DSIM_TRACE");
        EXPECT_EQ(answer, unset) << value;
        EXPECT_TRUE(std::filesystem::exists(trace)) << value;
        EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                                std::filesystem::directory_iterator()),
                  1)
            << value << ": one trace file per job";
        std::filesystem::remove(trace);
    }
    std::filesystem::remove_all(dir);
}

TEST(JobService, TracedJobWithoutTraceDirWritesNoFile)
{
    const std::filesystem::path dir = freshDir("t3dsim_serve_cwd");
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(dir);
    const std::string response = JobService::runStandalone(
        tracedLine(jobLine("tr", "simulate", 66)),
        model::defaultCostModel(), "");
    std::filesystem::current_path(cwd);

    EXPECT_TRUE(contains(response, "\"trace_events\":")) << response;
    EXPECT_FALSE(contains(response, "\"trace_path\"")) << response;
    EXPECT_TRUE(std::filesystem::is_empty(dir))
        << "a traced job without a trace dir wrote into the working "
           "directory";
    std::filesystem::remove_all(dir);
}

TEST(JobService, RejectsMalformedRequests)
{
    ServiceOptions opt;
    opt.workers = 2;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());

    service.submit("this is not json", 1);
    service.submit("{\"id\": \"nograph\", \"mode\": \"simulate\"}", 2);
    service.submit("{\"id\": \"badmode\", \"mode\": \"guess\","
                   " \"graph\": {\"tasks\": [{\"id\": \"a\"}]}}",
                   3);
    service.submit("{\"id\": \"cyc\", \"graph\": {\"tasks\":"
                   " [{\"id\": \"a\"}, {\"id\": \"b\"}], \"edges\":"
                   " [{\"src\": \"a\", \"dst\": \"b\"},"
                   "  {\"src\": \"b\", \"dst\": \"a\"}]}}",
                   4);
    // An id with a quote and a newline must come back escaped, so
    // the error response still parses and echoes it unchanged.
    service.submit("{\"id\": \"q\\\"uote\\nline\", \"mode\": \"guess\"}",
                   5);
    service.submit("{\"mode\":\"simulate\",\"graph\":" +
                       std::string(200000, '['),
                   6);
    // Payloads past the node segment: once a storage abort (2e8) and
    // a hang on a size truncated to 32 bits (1e13).
    std::uint64_t tag = 7;
    for (const std::string bytes : {"200000000", "1e13"}) {
        service.submit(R"({"mode":"simulate","pes":2,"graph":{"tasks":)"
                       R"([{"id":"a","pe":0},{"id":"b","pe":1}],)"
                       R"("edges":[{"src":"a","dst":"b","bytes":)" +
                           bytes + "}]}}",
                       tag++);
    }
    // Task costs that wrapped the simulated clock (1e19 + 1e19) or
    // cast a double past 2^64 to a predicted 0 cycles (1.8e19 + 1e18).
    for (const std::string mode_costs :
         {R"("simulate","graph":{"tasks":[{"id":"a","cycles":1e19},)"
          R"({"id":"b","cycles":1e19}],)",
          R"("predict","graph":{"tasks":[{"id":"a","cycles":1.8e19},)"
          R"({"id":"b","cycles":1e18}],)"}) {
        service.submit(R"({"mode":)" + mode_costs +
                           R"("edges":[{"src":"a","dst":"b"}]}})",
                       tag++);
    }
    service.drain();

    EXPECT_TRUE(contains(out.responses[1], "\"ok\":false"));
    EXPECT_TRUE(contains(out.responses[1], "bad JSON"));
    EXPECT_TRUE(contains(out.responses[2], "missing 'graph'"));
    EXPECT_TRUE(contains(out.responses[3], "unknown mode 'guess'"));
    EXPECT_TRUE(contains(out.responses[4], "cycle through task"));
    std::string error;
    const model::Json echoed = model::Json::parse(out.responses[5], &error);
    ASSERT_TRUE(error.empty()) << error << ": " << out.responses[5];
    EXPECT_EQ(echoed["id"].str(), "q\"uote\nline");
    EXPECT_FALSE(echoed["ok"].boolean());
    EXPECT_TRUE(contains(out.responses[6], "nesting deeper than 256"));
    for (tag = 7; tag <= 8; ++tag) {
        EXPECT_TRUE(contains(out.responses[tag], "\"ok\":false"));
        EXPECT_TRUE(contains(out.responses[tag],
                             "edge 0: layout on pe 0 ends past the "
                             "134217728-byte node segment"))
            << out.responses[tag];
    }
    for (tag = 9; tag <= 10; ++tag) {
        EXPECT_TRUE(contains(out.responses[tag], "\"ok\":false"));
        EXPECT_TRUE(contains(out.responses[tag],
                             "cost exceeds 4611686018427387904 cycles"))
            << out.responses[tag];
    }
    EXPECT_EQ(service.stats().errors, 10u);
    EXPECT_EQ(service.stats().simulations, 0u);
    EXPECT_EQ(service.stats().predictions, 0u);
}

TEST(JobService, RejectsWrongTypedFieldsAndAnswersNext)
{
    // A field of the wrong JSON type is refused by name, not read as
    // its default (8 PEs, no trace) or as an empty mode, from the
    // pool and standalone alike, and the pool goes on to answer the
    // next job. Numbers outside RFC 8259, such as -nan, which would
    // reach an undefined float-to-int cast, are bad JSON; 1e400
    // parses to infinity and fails the range check.
    const std::string pes_err = "'pes' must be an integer in [1, 65536]";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {R"("pes":"64")", pes_err},
        {R"("pes":true)", pes_err},
        {R"("pes":null)", pes_err},
        {R"("pes":[4])", pes_err},
        {R"("pes":-nan)", "bad JSON"},
        {R"("pes":0x10)", "bad JSON"},
        {R"("pes":1e400)", pes_err},
        {R"("trace":"yes")", "'trace' must be true or false"},
        {R"("mode":5)", "'mode' must be a string (simulate|predict)"},
    };
    const std::string graph =
        R"("graph":{"tasks":[{"id":"a","cycles":5}]})";

    ServiceOptions opt;
    opt.workers = 2;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());
    std::uint64_t tag = 0;
    for (const auto &[field, error] : cases)
        service.submit("{" + field + "," + graph + "}", tag++);
    service.submit(jobLine("next", "simulate", 60), tag);
    service.drain();

    for (tag = 0; tag < cases.size(); ++tag) {
        const auto &[field, error] = cases[tag];
        const std::string &pooled = out.responses[tag];
        EXPECT_TRUE(contains(pooled, "\"ok\":false")) << field;
        EXPECT_TRUE(contains(pooled, error)) << field << ": " << pooled;
        EXPECT_EQ(JobService::runStandalone("{" + field + "," + graph + "}",
                                            opt.model, ""),
                  pooled)
            << field;
    }
    EXPECT_TRUE(contains(out.responses[tag], "\"ok\":true"))
        << out.responses[tag];
    EXPECT_EQ(service.stats().errors, cases.size());
    EXPECT_EQ(service.stats().simulations, 1u);
}

TEST(JobService, RefusesAmFanInPastQueueAndAnswersNext)
{
    // 1,281 am edges from tasks on PE 1 into one task on PE 0: one
    // more deposit than the AM queue and overflow ring hold. Both
    // modes refuse it at lowering instead of ending the process, and
    // the pool goes on to answer the next job.
    expectRefusedThenAnswersNext(amFanInGraph(1281), 8,
                                 "edge 1280: am edges into pe 0 at level "
                                 "0 exceed the 1280-slot AM queue");
}

TEST(JobService, RefusesPlanPastPeLevelBudgetAndAnswersNext)
{
    // A 3,000-task chain at 65,536 PEs: its dense work table would be
    // 197M cells, about 15.7 GB, which once ended the process in an
    // uncaught std::bad_alloc.
    std::string tasks = R"({"id":"t0","cycles":10})", edges;
    for (int k = 1; k < 3000; ++k) {
        const std::string id = "\"t" + std::to_string(k) + "\"";
        tasks += R"(,{"id":)" + id + R"(,"cycles":10})";
        edges += std::string(k > 1 ? "," : "") + R"({"src":"t)" +
                 std::to_string(k - 1) + R"(","dst":)" + id +
                 R"(,"bytes":8})";
    }
    expectRefusedThenAnswersNext(
        R"({"tasks":[)" + tasks + R"(],"edges":[)" + edges + "]}", 65536,
        "plan of 65536 pes x 3000 levels = 196608000 pe-levels exceeds "
        "the 33554432 pe-level budget");
}

TEST(Predict, FlagsAmFanInPastThePrimaryQueue)
{
    // 1,280 deposits into PE 0 in one level: all but 256 can take
    // the overflow ring, one interrupt each, which the prediction
    // does not price, so it carries a limit-path flag. 256 fit the
    // primary queue and are not flagged.
    for (const int edges : {1280, 256}) {
        TaskGraph g;
        std::string err;
        ASSERT_TRUE(TaskGraph::parseText(amFanInGraph(edges), g, err))
            << err;
        ASSERT_TRUE(g.validate(8, err)) << err;
        Plan plan;
        ASSERT_TRUE(Plan::build(g, LowerOptions{}, plan, err)) << err;
        const model::Prediction pred =
            predictGraph(g, plan, model::defaultCostModel());
        if (edges == 256) {
            EXPECT_TRUE(pred.flags.empty()) << pred.flags.front();
            continue;
        }
        ASSERT_EQ(pred.flags.size(), 1u);
        EXPECT_EQ(pred.flags[0],
                  "amOverflows possible on pe 0 at level 0 (1280 am "
                  "deposits, 256-slot AM queue): limit path, linear "
                  "composition unreliable");
    }

    ServiceOptions opt;
    opt.workers = 1;
    opt.model = model::defaultCostModel();
    Collector out;
    JobService service(opt, out.fn());
    service.submit(R"({"id":"fan","mode":"predict","pes":8,"graph":)" +
                       amFanInGraph(1280) + "}",
                   1);
    service.submit(R"({"id":"fit","mode":"predict","pes":8,"graph":)" +
                       amFanInGraph(256) + "}",
                   2);
    service.drain();
    EXPECT_TRUE(contains(out.responses[1],
                         "\"flags\":[\"amOverflows possible on pe 0"))
        << out.responses[1];
    EXPECT_TRUE(contains(out.responses[2], "\"flags\":[]"))
        << out.responses[2];
}
