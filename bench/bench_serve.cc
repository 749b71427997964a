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
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define T3D_SERVE_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "model/primitives.hh"
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

#if T3D_SERVE_HAVE_SOCKETS

/** Guards concurrent per-connection response writes. */
struct SocketSink
{
    std::mutex m;
    int fd = -1;
};

/** One TCP connection: read job lines, answer on the same socket.
 *  Tags route each response back here through the shared service. */
void
serveConnection(taskgraph::JobService &service, SocketSink &sink)
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::read(sink.fd, chunk, sizeof chunk);
        if (n <= 0)
            break;
        buf.append(chunk, std::size_t(n));
        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty())
                service.submit(std::move(line),
                               reinterpret_cast<std::uint64_t>(&sink));
        }
    }
}

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
        conn_threads.emplace_back(
            [&service, &sink] { serveConnection(service, sink); });
    }
}

#endif // T3D_SERVE_HAVE_SOCKETS

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
        if (!std::getline(std::cin, line)) {
            std::cerr << "error: --once expects one job line on"
                         " stdin\n";
            return 2;
        }
        std::cout << taskgraph::JobService::runStandalone(
                         line, opt.service.model, opt.service.traceDir)
                  << "\n";
        return 0;
    }

    StdoutSink stdout_sink;
#if T3D_SERVE_HAVE_SOCKETS
    std::vector<std::unique_ptr<SocketSink>> sinks;
    std::mutex conn_m;
#endif

    taskgraph::JobService service(
        opt.service, [&](std::uint64_t tag, const std::string &line) {
#if T3D_SERVE_HAVE_SOCKETS
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
#endif
            stdout_sink.write(line);
        });

    int listen_fd = -1;
    std::thread listener;
    std::vector<std::thread> conn_threads;
#if T3D_SERVE_HAVE_SOCKETS
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
#else
    if (opt.port > 0) {
        std::cerr << "error: --port is not supported on this"
                     " platform\n";
        return 2;
    }
#endif

    std::string line;
    while (std::getline(std::cin, line)) {
        if (!line.empty())
            service.submit(std::move(line));
        line.clear();
    }
    service.drain();

#if T3D_SERVE_HAVE_SOCKETS
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
#endif

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
