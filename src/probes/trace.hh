/**
 * @file
 * Timestamped shell-event trace (the observability layer's "when did
 * it happen" half; see docs/OBSERVABILITY.md).
 *
 * Shell components record spans (remote reads, write injections, BLT
 * transfers, barrier waits, message receives) and instants onto one
 * machine-wide TraceSink; writeJson() exports Chrome trace-event
 * JSON — one thread track per PE, one counter track per torus
 * dimension — loadable in Perfetto (https://ui.perfetto.dev) or
 * chrome://tracing.
 *
 * Recording only *reads* clocks; it never advances one, so a traced
 * run's simulated schedule is identical to an untraced run (pinned
 * by tests/splitc/obs_invariance_test.cc). Timestamps are converted
 * to microseconds (the Chrome "ts" unit) at export time with pure
 * integer arithmetic, so output is bit-reproducible.
 */

#ifndef T3DSIM_PROBES_TRACE_HH
#define T3DSIM_PROBES_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace t3dsim::probes
{

/** Machine-wide recorder of timestamped shell events. */
class TraceSink
{
  private:
    enum class Kind : std::uint8_t { Span, Instant, Counter };

    struct Event
    {
        const char *name;     ///< static string; not owned
        const char *argName;  ///< optional static string
        std::uint64_t arg;    ///< span argument or counter value
        Cycles start;
        Cycles end;
        PeId tid;
        Kind kind;
    };

  public:
    explicit TraceSink(std::uint32_t num_pes,
                       std::size_t event_cap = 1u << 20)
        : _numPes(num_pes), _cap(event_cap)
    {
    }

    /** @name Recording (inline; called from shell hot paths) */
    /// @{
    /** Duration event [start, end] on PE @p pe's track. */
    void
    span(PeId pe, const char *name, Cycles start, Cycles end)
    {
        record(Kind::Span, pe, name, start, end, nullptr, 0);
    }

    /** Span with one integer argument (e.g. the destination PE). */
    void
    span(PeId pe, const char *name, Cycles start, Cycles end,
         const char *arg_name, std::uint64_t arg)
    {
        record(Kind::Span, pe, name, start, end, arg_name, arg);
    }

    /** Zero-duration marker on PE @p pe's track. */
    void
    instant(PeId pe, const char *name, Cycles when)
    {
        record(Kind::Instant, pe, name, when, when, nullptr, 0);
    }

    /** Sample of a named counter track (e.g. "torus.x"). */
    void
    counter(const char *track, Cycles when, std::uint64_t value)
    {
        record(Kind::Counter, 0, track, when, when, nullptr, value);
    }
    /// @}

    std::size_t eventCount() const { return _events.size(); }
    std::size_t dropped() const { return _dropped; }
    std::uint32_t numPes() const { return _numPes; }

    /** Export everything as Chrome trace-event JSON. */
    void writeJson(std::ostream &os) const;

    /** writeJson() to @p path; false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    void
    record(Kind kind, PeId tid, const char *name, Cycles start,
           Cycles end, const char *arg_name, std::uint64_t arg)
    {
        if (_events.size() >= _cap) {
            ++_dropped;
            return;
        }
        _events.push_back({name, arg_name, arg, start, end, tid, kind});
    }

    std::uint32_t _numPes;
    std::size_t _cap;
    std::vector<Event> _events;
    std::size_t _dropped = 0;
};

} // namespace t3dsim::probes

#endif // T3DSIM_PROBES_TRACE_HH
