/**
 * @file
 * Host-time spans recorded around the benchmark's own calls into the
 * simulator's layers. Spans live in memory and are written out once,
 * as Chrome trace-event JSON, when the run ends. A disabled Tracer
 * records nothing, so untraced runs pay only the clock reads the
 * workloads take anyway.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the steady clock since an arbitrary fixed origin. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord
{
    std::string name;
    double start = 0;
    double end = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< -1: top-level
    std::int64_t job = -1;    ///< serve job id, -1 elsewhere
};

/** Thread-safe in-memory span store. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Record a finished span; returns its id (-1 when disabled). */
    std::int64_t
    add(std::string name, double start, double end,
        std::int64_t parent = -1, std::int64_t job = -1)
    {
        if (!_enabled)
            return -1;
        std::lock_guard<std::mutex> lock(_m);
        const auto id = static_cast<std::int64_t>(_spans.size());
        _spans.push_back({std::move(name), start, end, id, parent, job});
        return id;
    }

    /** Reserve an id for a span whose children end before it does. */
    std::int64_t
    open(std::string name, double start, std::int64_t parent = -1,
         std::int64_t job = -1)
    {
        return add(std::move(name), start, start, parent, job);
    }

    void
    close(std::int64_t id, double end)
    {
        if (id < 0)
            return;
        std::lock_guard<std::mutex> lock(_m);
        _spans[static_cast<std::size_t>(id)].end = end;
    }

    std::vector<SpanRecord>
    spans() const
    {
        std::lock_guard<std::mutex> lock(_m);
        return _spans;
    }

    /** Chrome trace-event JSON ("X" events, microseconds from the
     *  first span), loadable in Perfetto. Span names are plain
     *  identifiers, so they need no escaping. */
    void
    writeChromeJson(std::ostream &os) const
    {
        const std::vector<SpanRecord> all = spans();
        double origin = all.empty() ? 0 : all.front().start;
        for (const SpanRecord &s : all)
            origin = std::min(origin, s.start);
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        char buf[160];
        for (std::size_t i = 0; i < all.size(); ++i) {
            const SpanRecord &s = all[i];
            std::snprintf(buf, sizeof buf,
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%lld,"
                          "\"args\":{\"id\":%lld,\"parent\":%lld,"
                          "\"job\":%lld}}",
                          (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                          static_cast<long long>(s.job + 1),
                          static_cast<long long>(s.id),
                          static_cast<long long>(s.parent),
                          static_cast<long long>(s.job));
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\"," << buf;
        }
        os << "\n]}\n";
    }

  private:
    bool _enabled;
    mutable std::mutex _m;
    std::vector<SpanRecord> _spans;
};

/** RAII span: open on construction, close on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, std::string name, std::int64_t parent = -1,
         std::int64_t job = -1)
        : _tracer(tracer), _start(nowS()),
          _id(tracer.open(std::move(name), _start, parent, job))
    {
    }
    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int64_t id() const { return _id; }

    /** Close the span (once) and return its length in seconds. */
    double
    stop()
    {
        if (_end < 0) {
            _end = nowS();
            _tracer.close(_id, _end);
        }
        return _end - _start;
    }

  private:
    Tracer &_tracer;
    double _start;
    double _end = -1;
    std::int64_t _id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
