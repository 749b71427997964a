#include "layer_probes.hh"

#include <algorithm>
#include <functional>
#include <vector>

#include "alpha/address.hh"
#include "machine/machine.hh"
#include "shell/annex.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

namespace perfbench
{

namespace
{

using namespace t3dsim;
using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;

/** Repeats of each probe; the table reports their median. */
constexpr int repeats = 5;

/** Keeps probe loads from being optimised away. */
volatile std::uint64_t probeSink = 0;

/**
 * Median over `repeats` calls of @p timed_body, which returns the
 * host seconds of its @p ops operations (excluding any state it
 * builds first), scaled to ns per operation.
 */
double
probe(double ops, const std::function<double()> &timed_body)
{
    std::vector<double> ns;
    for (int i = 0; i < repeats; ++i)
        ns.push_back(timed_body() * 1e9 / ops);
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/** Host seconds of @p loop, recorded as span @p name. */
double
timeLoop(Tracer &tracer, const std::string &name,
         const std::function<void()> &loop)
{
    Span span(tracer, "probe." + name);
    loop();
    return span.stop();
}

/** Host seconds of runSpmd over @p pes PEs, construction excluded. */
double
timeSpmd(Tracer &tracer, const std::string &name, std::uint32_t pes,
         const splitc::ProgramFn &program)
{
    machine::Machine machine(machine::MachineConfig::t3d(pes));
    splitc::SplitcConfig config;
    config.hostThreads = -1;
    Span span(tracer, "probe." + name);
    splitc::runSpmd(machine, program, config);
    return span.stop();
}

} // namespace

std::map<std::string, double>
runLayerProbes(Tracer &tracer)
{
    std::map<std::string, double> table;
    std::uint64_t sink = 0;

    // Core and memory: one node of a two-PE machine, as in the
    // google-benchmark micro cases of bench_sim_speed.
    {
        machine::Machine m(machine::MachineConfig::t3d(2));
        auto &core = m.node(0).core();
        core.loadU64(0x1000);
        constexpr int n = 2'000'000;
        table["alpha.load_hit_ns"] = probe(n, [&] {
            return timeLoop(tracer, "alpha.load_hit", [&] {
                for (int i = 0; i < n; ++i)
                    sink += core.loadU64(0x1000);
            });
        });
        table["alpha.store_ns"] = probe(n / 4, [&] {
            return timeLoop(tracer, "alpha.store", [&] {
                Addr a = 0;
                for (int i = 0; i < n / 4; ++i) {
                    core.storeU64(a, 1);
                    a = (a + 32) % (8 * MiB);
                }
            });
        });
        table["mem.load_miss_ns"] = probe(n / 4, [&] {
            return timeLoop(tracer, "mem.load_miss", [&] {
                Addr a = 0;
                for (int i = 0; i < n / 4; ++i) {
                    sink += core.loadU64(a);
                    a = (a + 32) % (8 * MiB);
                }
            });
        });
    }

    // Shell: uncached remote accesses through an annex register.
    {
        machine::Machine m(machine::MachineConfig::t3d(2));
        auto &node = m.node(0);
        node.shell().setAnnex(1, {1, shell::ReadMode::Uncached});
        const Addr va = alpha::makeAnnexedVa(1, 0);
        constexpr int n = 200'000;
        table["shell.remote_read_ns"] = probe(n, [&] {
            return timeLoop(tracer, "shell.remote_read", [&] {
                for (int i = 0; i < n; ++i)
                    sink += node.loadU64(va);
            });
        });
        table["shell.remote_write_ns"] = probe(n, [&] {
            return timeLoop(tracer, "shell.remote_write", [&] {
                Addr a = 0;
                for (int i = 0; i < n; ++i) {
                    node.storeU64(alpha::makeAnnexedVa(1, a), 1);
                    a = (a + 32) % (32 * MiB);
                }
            });
        });
    }
    probeSink = sink;

    // Split-C over the shell engines.
    constexpr Addr local = 0x100000;
    constexpr Addr remote = 0x400000;
    {
        constexpr int n = 100'000;
        table["shell.get_ns"] = probe(n, [&] {
            return timeSpmd(tracer, "shell.get", 2, [&](Proc &p) -> ProcTask {
                if (p.pe() == 0) {
                    for (int i = 0; i < n; ++i) {
                        const Addr off = Addr(i % 1024) * 8;
                        p.getU64(GlobalAddr::make(1, remote + off),
                                 local + off);
                    }
                    p.sync();
                }
                co_return;
            });
        });
    }
    {
        constexpr int transfers = 200;
        constexpr std::size_t bytes = 64 * KiB;
        table["shell.blt_ns_per_kib"] =
            probe(transfers * double(bytes / KiB), [&] {
                return timeSpmd(tracer, "shell.blt", 2,
                                [&](Proc &p) -> ProcTask {
                    if (p.pe() == 0) {
                        for (int i = 0; i < transfers; ++i)
                            p.bulkReadBlt(local,
                                          GlobalAddr::make(1, remote),
                                          bytes);
                    }
                    co_return;
                });
            });
    }

    // Scheduler: a trivial barrier loop. At 1024 PEs the barrier tree
    // dominates; at 2 PEs each barrier is mostly two coroutine
    // resumes.
    {
        constexpr std::uint32_t pes = 1024;
        constexpr int barriers = 40;
        table["splitc.barrier_ns_per_pe"] =
            probe(double(pes) * barriers, [&] {
                return timeSpmd(tracer, "splitc.barrier", pes,
                                [&](Proc &p) -> ProcTask {
                    for (int i = 0; i < barriers; ++i)
                        co_await p.barrier();
                });
            });
    }
    {
        constexpr int barriers = 50'000;
        table["splitc.resume_ns"] = probe(2.0 * barriers, [&] {
            return timeSpmd(tracer, "splitc.resume", 2,
                            [&](Proc &p) -> ProcTask {
                for (int i = 0; i < barriers; ++i)
                    co_await p.barrier();
            });
        });
    }
    return table;
}

} // namespace perfbench
