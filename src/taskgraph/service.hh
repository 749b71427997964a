/**
 * @file
 * The batch simulation service behind `t3d-serve` (docs/TASKGRAPH.md
 * "Server protocol"): a worker pool that executes line-delimited
 * JSON jobs — parse, validate, lower, then either exact simulation
 * (run.hh) or the analytical fast path (predict.hh) — with a
 * result cache keyed by (graph hash, machine hash, mode). Repeat
 * jobs coalesce: the first becomes the leader and computes, every
 * concurrent or later duplicate waits and answers from the cache
 * without re-simulating (pinned by tests/taskgraph/service_test.cc).
 */

#ifndef T3DSIM_TASKGRAPH_SERVICE_HH
#define T3DSIM_TASKGRAPH_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "model/primitives.hh"

namespace t3dsim::taskgraph
{

struct ServiceOptions
{
    /** Worker threads draining the job queue. */
    unsigned workers = 1;

    /** Cost model for `"mode": "predict"` jobs. */
    model::CostModel model;

    /** When non-empty, jobs with `"trace": true` write their Chrome
     *  trace JSON under this directory and the response names the
     *  file. */
    std::string traceDir;
};

/**
 * The long-running job service. Construct, submit() lines from any
 * thread, and responses arrive on the callback (from worker threads,
 * serialized per call but in completion order). drain() blocks until
 * the queue and every in-flight job are done; the destructor stops
 * the pool.
 */
class JobService
{
  public:
    /** @param tag Caller's routing cookie, echoed verbatim (callers
     *  that submit many lines use it to match each response to its
     *  request). */
    using ResponseFn =
        std::function<void(std::uint64_t tag, const std::string &line)>;

    JobService(ServiceOptions options, ResponseFn on_response);
    ~JobService();

    JobService(const JobService &) = delete;
    JobService &operator=(const JobService &) = delete;

    /** Enqueue one request line (one JSON object). */
    void submit(std::string line, std::uint64_t tag = 0);

    /** Answer a line that never reached the queue (t3d-serve's
     *  over-long lines) with the typed error @p err, counted as a
     *  rejected request. */
    void reject(const std::string &err, std::uint64_t tag = 0);

    /** Block until every submitted job has been answered. */
    void drain();

    struct Stats
    {
        std::uint64_t jobs = 0;         ///< requests answered
        std::uint64_t simulations = 0;  ///< exact runs executed
        std::uint64_t predictions = 0;  ///< model evaluations executed
        std::uint64_t cacheHits = 0;    ///< answered without executing
        std::uint64_t errors = 0;       ///< rejected requests
    };
    Stats stats() const;

    /**
     * Synchronous one-shot execution of a single request line,
     * bypassing queue and cache (t3d-serve --once; the standalone
     * reference the smoke test compares server batches against).
     */
    static std::string runStandalone(const std::string &line,
                                     const model::CostModel &model,
                                     const std::string &trace_dir);

    /** The `ok:false` response line for request @p id. */
    static std::string errorResponse(const std::string &id,
                                     const std::string &err);

  private:
    /** One cached result, guarded by _m. Map nodes are never
     *  erased, so a reference to an entry stays valid. */
    struct CacheEntry
    {
        bool done = false;
        std::string payload;  ///< response fragment past the id/cache
    };

    struct Job
    {
        std::string line;
        std::uint64_t tag = 0;
    };

    void workerMain();
    void process(const Job &job);

    ServiceOptions _options;
    ResponseFn _onResponse;

    mutable std::mutex _m;
    std::condition_variable _wake;   ///< workers: queue or stop
    std::condition_variable _idle;   ///< drain(): all done
    std::condition_variable _filled; ///< followers: a leader is done
    std::deque<Job> _queue;
    std::uint64_t _inFlight = 0;
    bool _stop = false;
    Stats _stats;
    std::map<std::string, CacheEntry> _cache;

    std::vector<std::thread> _workers;
};

} // namespace t3dsim::taskgraph

#endif // T3DSIM_TASKGRAPH_SERVICE_HH
