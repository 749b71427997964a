/**
 * @file
 * `t3d-serve` — the long-running batch simulation service
 * (docs/TASKGRAPH.md "Server protocol"). Reads one job per line of
 * line-delimited JSON from stdin (or an optional TCP socket), shards
 * jobs across host worker threads, answers each with one JSON line,
 * and caches results by (graph hash, machine hash, mode) so repeat
 * jobs short-circuit without re-simulating.
 *
 *   t3d-serve [--threads=N] [--model=F] [--trace-dir=D] [--port=P]
 *             [--quiet]
 *       Serve jobs from stdin until EOF (and, with --port, from TCP
 *       connections until stdin closes). Responses go to stdout, one
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
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
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
    int port = 0;
    bool once = false;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    cli::Args args(argc, argv,
                   "usage: t3d-serve [--threads=N] [--model=F]"
                   " [--trace-dir=D] [--port=P] [--quiet] | --once\n");
    Options opt;
    if (args.value("--threads", opt.service.workers) &&
        opt.service.workers < 1)
        args.fail("--threads must be >= 1");
    args.value("--model", opt.modelPath);
    args.value("--trace-dir", opt.service.traceDir);
    args.value("--port", opt.port);
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
 * Splits what read(2) returns on one descriptor (stdin or a TCP
 * connection) into request lines. Each byte is scanned once. A line
 * past kMaxLineBytes is reported as soon as it crosses the cap, and
 * its rest is dropped as it arrives instead of being buffered.
 */
class LineReader
{
  public:
    enum class Got { Line, TooLong, End };

    explicit LineReader(int fd) : _fd(fd) {}

    /** The next line (without its '\n') into @p line. */
    Got
    next(std::string &line)
    {
        for (;;) {
            if (_pos == _len) {
                const ssize_t n = ::read(_fd, _chunk, sizeof _chunk);
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
    int _fd;
    char _chunk[64 * 1024];
    std::size_t _pos = 0; ///< next unscanned byte of _chunk
    std::size_t _len = 0; ///< bytes in _chunk
    std::string _line;    ///< the line so far
    bool _dropping = false; ///< skipping the rest of an over-long line
};

/** Submit every line @p fd delivers to @p service, tagged @p tag. */
void
serveLines(taskgraph::JobService &service, int fd, std::uint64_t tag)
{
    LineReader reader(fd);
    std::string line;
    for (;;) {
        switch (reader.next(line)) {
          case LineReader::Got::End:
            return;
          case LineReader::Got::TooLong:
            service.reject(kLineTooLong, tag);
            break;
          case LineReader::Got::Line:
            if (!line.empty())
                service.submit(std::move(line), tag);
            line.clear();
            break;
        }
    }
}

/** Serializes response lines from worker threads onto stdout. */
class StdoutSink
{
  public:
    void
    write(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(_m);
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    }

  private:
    std::mutex _m;
};

/** Guards concurrent per-connection response writes. */
struct SocketSink
{
    std::mutex m;
    int fd = -1;
};

/** Accept loop: one thread per connection, answers routed by tag. */
void
listenLoop(int listen_fd, taskgraph::JobService &service,
           std::vector<std::thread> &conn_threads,
           std::vector<std::unique_ptr<SocketSink>> &sinks,
           std::mutex &conn_m)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            break;
        std::lock_guard<std::mutex> lock(conn_m);
        sinks.push_back(std::make_unique<SocketSink>());
        SocketSink &sink = *sinks.back();
        sink.fd = fd;
        // Tags route each response back to this connection.
        conn_threads.emplace_back([&service, &sink] {
            serveLines(service, sink.fd,
                       reinterpret_cast<std::uint64_t>(&sink));
        });
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
        switch (LineReader(STDIN_FILENO).next(line)) {
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

    StdoutSink stdout_sink;
    std::vector<std::unique_ptr<SocketSink>> sinks;
    std::mutex conn_m;

    taskgraph::JobService service(
        opt.service, [&](std::uint64_t tag, const std::string &line) {
            if (tag != 0) {
                auto *sink = reinterpret_cast<SocketSink *>(tag);
                std::lock_guard<std::mutex> lock(sink->m);
                std::string out = line;
                out += '\n';
                const char *p = out.data();
                std::size_t left = out.size();
                while (left > 0) {
                    const ssize_t n = ::write(sink->fd, p, left);
                    if (n <= 0)
                        break;
                    p += n;
                    left -= std::size_t(n);
                }
                return;
            }
            stdout_sink.write(line);
        });

    int listen_fd = -1;
    std::thread listener;
    std::vector<std::thread> conn_threads;
    if (opt.port > 0) {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd < 0) {
            std::cerr << "error: socket() failed\n";
            return 1;
        }
        const int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(std::uint16_t(opt.port));
        if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) < 0 ||
            ::listen(listen_fd, 64) < 0) {
            std::cerr << "error: cannot listen on port " << opt.port
                      << "\n";
            return 1;
        }
        if (!opt.quiet)
            std::cerr << "t3d-serve: listening on 127.0.0.1:"
                      << opt.port << "\n";
        listener = std::thread([&] {
            listenLoop(listen_fd, service, conn_threads, sinks,
                       conn_m);
        });
    }

    serveLines(service, STDIN_FILENO, 0);
    service.drain();

    if (listen_fd >= 0) {
        ::shutdown(listen_fd, SHUT_RDWR);
        ::close(listen_fd);
        listener.join();
        std::lock_guard<std::mutex> lock(conn_m);
        for (auto &sink : sinks)
            if (sink->fd >= 0) {
                ::shutdown(sink->fd, SHUT_RDWR);
                ::close(sink->fd);
            }
        for (std::thread &t : conn_threads)
            t.join();
        service.drain();
    }

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
