/**
 * @file
 * `t3d-serve` — the long-running batch simulation service
 * (docs/TASKGRAPH.md "Server protocol"). Reads one job per line of
 * line-delimited JSON from stdin, shards jobs across host worker
 * threads, answers each with one JSON line, and caches results by
 * (graph hash, machine hash, mode) so repeat jobs short-circuit
 * without re-simulating.
 *
 *   t3d-serve [--threads=N] [--model=F] [--trace-dir=D] [--quiet]
 *       Serve jobs from stdin until EOF. Responses go to stdout, one
 *       line each, in completion order; a stats summary goes to
 *       stderr at exit unless --quiet.
 *
 *   t3d-serve --once
 *       Read exactly one job line from stdin, execute it
 *       synchronously with no pool and no cache, and print the one
 *       response. The standalone reference tools/serve_smoke.py
 *       compares server batches against.
 *
 * Request lines:  {"id": "j1", "mode": "simulate"|"predict",
 *                  "pes": 8, "trace": false,
 *                  "graph": {...}}           (schema: docs/TASKGRAPH.md)
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>

#include <unistd.h>

#include "model/primitives.hh"
#include "sim/types.hh"
#include "taskgraph/service.hh"

#include "cli.hh"

using namespace t3dsim;

namespace
{

struct Options
{
    /** Workers (--threads), trace directory and, once loaded from
     *  --model, the cost model. */
    taskgraph::ServiceOptions service;
    std::string modelPath;
    bool once = false;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    cli::Args args(argc, argv,
                   "usage: t3d-serve [--threads=N] [--model=F]"
                   " [--trace-dir=D] [--quiet] | --once\n");
    Options opt;
    if (args.value("--threads", opt.service.workers) &&
        opt.service.workers < 1)
        args.fail("--threads must be >= 1");
    args.value("--model", opt.modelPath);
    args.value("--trace-dir", opt.service.traceDir);
    opt.once = args.flag("--once");
    opt.quiet = args.flag("--quiet");
    args.done();
    return opt;
}

/** The longest request line t3d-serve reads (docs/TASKGRAPH.md). */
constexpr std::size_t kMaxLineBytes = 16 * MiB;

const std::string kLineTooLong = "request line longer than " +
                                 std::to_string(kMaxLineBytes) + " bytes";

/**
 * Splits what read(2) returns on stdin into request lines. Each byte
 * is scanned once. A line past kMaxLineBytes is reported as soon as
 * it crosses the cap, and its rest is dropped as it arrives instead
 * of being buffered.
 */
class LineReader
{
  public:
    enum class Got { Line, TooLong, End };

    /** The next line (without its '\n') into @p line. */
    Got
    next(std::string &line)
    {
        for (;;) {
            if (_pos == _len) {
                const ssize_t n =
                    ::read(STDIN_FILENO, _chunk, sizeof _chunk);
                if (n <= 0) {
                    // A last line may end at end of input.
                    if (_dropping || _line.empty())
                        return Got::End;
                    line = std::move(_line);
                    _line.clear();
                    return Got::Line;
                }
                _pos = 0;
                _len = std::size_t(n);
            }
            const char *begin = _chunk + _pos;
            const char *nl = static_cast<const char *>(
                std::memchr(begin, '\n', _len - _pos));
            const std::size_t take = nl ? nl - begin : _len - _pos;
            _pos += take + (nl ? 1 : 0);
            if (_dropping) {
                _dropping = !nl;
                continue;
            }
            if (take > kMaxLineBytes - _line.size()) {
                _dropping = !nl;
                _line = std::string();
                return Got::TooLong;
            }
            _line.append(begin, take);
            if (nl) {
                line = std::move(_line);
                _line.clear();
                return Got::Line;
            }
        }
    }

  private:
    char _chunk[64 * 1024];
    std::size_t _pos = 0; ///< next unscanned byte of _chunk
    std::size_t _len = 0; ///< bytes in _chunk
    std::string _line;    ///< the line so far
    bool _dropping = false; ///< skipping the rest of an over-long line
};

/** Submit every line stdin delivers to @p service. */
void
serveStdin(taskgraph::JobService &service)
{
    LineReader reader;
    std::string line;
    for (;;) {
        switch (reader.next(line)) {
          case LineReader::Got::End:
            return;
          case LineReader::Got::TooLong:
            service.reject(kLineTooLong);
            break;
          case LineReader::Got::Line:
            if (!line.empty())
                service.submit(std::move(line));
            line.clear();
            break;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::string model_err;
    if (!model::loadCostModelFile(opt.modelPath, opt.service.model,
                                  model_err)) {
        std::cerr << "error: " << model_err << "\n";
        return 1;
    }

    if (opt.once) {
        std::string line;
        switch (LineReader().next(line)) {
          case LineReader::Got::End:
            std::cerr << "error: --once expects one job line on"
                         " stdin\n";
            return 2;
          case LineReader::Got::TooLong:
            std::cout << taskgraph::JobService::errorResponse(
                             "?", kLineTooLong)
                      << "\n";
            return 0;
          case LineReader::Got::Line:
            break;
        }
        std::cout << taskgraph::JobService::runStandalone(
                         line, opt.service.model, opt.service.traceDir)
                  << "\n";
        return 0;
    }

    // Workers answer concurrently; one lock keeps each line whole.
    std::mutex out_m;
    taskgraph::JobService service(
        opt.service, [&](std::uint64_t, const std::string &line) {
            std::lock_guard<std::mutex> lock(out_m);
            std::fwrite(line.data(), 1, line.size(), stdout);
            std::fputc('\n', stdout);
            std::fflush(stdout);
        });
    serveStdin(service);
    service.drain();

    if (!opt.quiet) {
        const taskgraph::JobService::Stats s = service.stats();
        std::cerr << "t3d-serve: jobs=" << s.jobs
                  << " simulations=" << s.simulations
                  << " predictions=" << s.predictions
                  << " cache_hits=" << s.cacheHits
                  << " errors=" << s.errors << "\n";
    }
    return 0;
}
