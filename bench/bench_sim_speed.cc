/**
 * @file
 * Host-side simulator throughput (google-benchmark): how fast the
 * model itself executes simulated operations. Not a paper figure —
 * this guards the usability of the library (slow models make the
 * Figure 9 sweeps impractical).
 *
 * Besides the google-benchmark micro cases, the binary always runs an
 * end-to-end EM3D-sweep throughput case (all six Figure 9 versions)
 * at 32 and 256 PEs and writes the result to BENCH_sim_speed.json so
 * successive PRs can track the host-performance trajectory. Pass
 * --sweep-only to skip the micro benchmarks.
 *
 * A second, weak-scaling sweep takes the PE count through 256 / 1K /
 * 4K / 16K / 64K (three Figure 9 versions) and reports
 * sim-PE-cycles/s, modeled bytes per PE
 * (Machine::residentModelBytes) and two host-RSS figures: the
 * process-lifetime peak (ru_maxrss — monotone across rows, so later
 * rows inherit earlier rows' high-water mark) and a current-RSS
 * sample (/proc/self/statm) taken right after the case, which is the
 * per-case figure. Pass --weak-only to run just this sweep,
 * --max-pes=N to cap it.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include "alpha/address.hh"
#include "apps/app.hh"
#include "apps/bsort/bsort.hh"
#include "apps/qcd/qcd.hh"
#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "model/compose.hh"
#include "model/measure.hh"
#include "model/primitives.hh"
#include "model/validate.hh"
#include "shell/annex.hh"

using namespace t3dsim;

namespace
{

void
BM_LocalCacheHit(benchmark::State &state)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    node.core().loadU64(0x1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(node.core().loadU64(0x1000));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalCacheHit);

void
BM_LocalMiss(benchmark::State &state)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(node.core().loadU64(a));
        a = (a + 32) % (8 * MiB);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalMiss);

void
BM_LocalStore(benchmark::State &state)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    Addr a = 0;
    for (auto _ : state) {
        node.core().storeU64(a, 1);
        a = (a + 32) % (8 * MiB);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalStore);

void
BM_RemoteUncachedRead(benchmark::State &state)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    node.shell().setAnnex(1, {1, shell::ReadMode::Uncached});
    const Addr va = alpha::makeAnnexedVa(1, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(node.loadU64(va));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteUncachedRead);

void
BM_RemoteWrite(benchmark::State &state)
{
    machine::Machine m(machine::MachineConfig::t3d(2));
    auto &node = m.node(0);
    node.shell().setAnnex(1, {1, shell::ReadMode::Uncached});
    Addr a = 0;
    for (auto _ : state) {
        node.storeU64(alpha::makeAnnexedVa(1, a), 1);
        a = (a + 32) % (64 * MiB / 2);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteWrite);

void
BM_Em3dIteration(benchmark::State &state)
{
    em3d::Config cfg;
    cfg.nodesPerPe = 50;
    cfg.degree = 5;
    cfg.remoteFraction = 0.3;
    for (auto _ : state) {
        auto result = em3d::run(cfg, em3d::Version::Get, 4);
        benchmark::DoNotOptimize(result.usPerEdge);
    }
}
BENCHMARK(BM_Em3dIteration);

// ---------------------------------------------------------------------
// End-to-end EM3D-sweep throughput (BENCH_sim_speed.json)
// ---------------------------------------------------------------------

/** Sweep workload: small enough to finish quickly at 256 PEs, large
 *  enough that per-run setup does not dominate. */
em3d::Config
sweepConfig()
{
    em3d::Config cfg;
    cfg.nodesPerPe = 32;
    cfg.degree = 4;
    cfg.remoteFraction = 0.2;
    cfg.iterations = 2;
    return cfg;
}

/** One ladder case: every rung of one app at one PE count. */
struct LadderOutcome
{
    std::string app;
    std::uint32_t pes = 0;
    double hostSeconds = 0;

    /** Sum over the rungs of the run's elapsed model time. */
    std::uint64_t simCycles = 0;

    /** simCycles * pes / hostSeconds: every PE advances through the
     *  elapsed window, so this is the aggregate rate at which the
     *  host retires simulated PE-cycles (the gem5 "host rate"). */
    double simPeCyclesPerHostSecond = 0;

    /** Sum of per-rung checksums: a determinism anchor and a guard
     *  against the work being optimized away. */
    apps::Checksum checksum;
};

LadderOutcome
runLadderCase(const apps::App &app, std::uint32_t pes)
{
    LadderOutcome out;
    out.app = app.name;
    out.pes = pes;

    // One untimed warmup pass (page cache, allocator), then best of
    // three timed passes: the 32-PE case finishes in milliseconds,
    // where cold-start and scheduler noise would dominate a single
    // cold measurement.
    const machine::MachineConfig mc = machine::MachineConfig::t3d(pes);
    constexpr int timedPasses = 3;
    for (int pass = -1; pass < timedPasses; ++pass) {
        std::uint64_t sim_cycles = 0;
        apps::Checksum checksum;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < app.rungs.size(); ++i) {
            const apps::RungResult r = app.run(i, mc, {});
            sim_cycles += r.elapsed;
            checksum += r.checksum;
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double host_s =
            std::chrono::duration<double>(t1 - t0).count();
        if (pass < 0)
            continue; // warmup
        if (out.hostSeconds == 0 || host_s < out.hostSeconds)
            out.hostSeconds = host_s;
        // The simulation is deterministic: every pass must produce
        // the same model time and checksum.
        out.simCycles = sim_cycles;
        out.checksum = checksum;
    }
    out.simPeCyclesPerHostSecond =
        double(out.simCycles) * pes / out.hostSeconds;
    return out;
}

/** Peak resident set of this process, in bytes (Linux ru_maxrss is
 *  KiB). 0 if the kernel will not say. Process-lifetime high-water
 *  mark: it never decreases, so per-case readings taken in sequence
 *  are cumulative, not per-case. */
std::uint64_t
peakRssBytes()
{
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return std::uint64_t(ru.ru_maxrss) * 1024;
}

/** Current resident set of this process, in bytes, sampled from
 *  /proc/self/statm. Unlike ru_maxrss this tracks frees, so a sample
 *  taken right after a case reflects that case. 0 where /proc is
 *  unavailable. */
std::uint64_t
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    if (!(statm >> size >> resident))
        return 0;
    const long page = sysconf(_SC_PAGESIZE);
    return resident * std::uint64_t(page > 0 ? page : 4096);
}

// ---------------------------------------------------------------------
// Weak-scaling sweep (flyweight-PE capacity story, DESIGN.md §11)
// ---------------------------------------------------------------------

/** One weak-scaling measurement: fixed per-PE workload, growing P. */
struct WeakOutcome
{
    std::uint32_t pes = 0;
    double hostSeconds = 0;
    std::uint64_t simCycles = 0;
    double simPeCyclesPerHostSecond = 0;

    /** Machine::residentModelBytes after the run (max across the
     *  versions — each builds a fresh machine). */
    std::uint64_t modeledBytes = 0;
    double modeledBytesPerPe = 0;

    /** Process peak RSS after this case, bytes. ru_maxrss is a
     *  process-lifetime high-water mark, so this is cumulative
     *  across cases (the sweep runs smallest-P first); see
     *  host_rss_note in the JSON. */
    std::uint64_t hostPeakRssBytes = 0;

    /** Current RSS sampled right after this case (bytes): the
     *  per-case figure. */
    std::uint64_t hostCurrentRssBytes = 0;

    double checksum = 0;
};

/** PE counts for the weak-scaling sweep, capped by --max-pes. */
std::vector<std::uint32_t>
weakScalingPes(std::uint32_t max_pes)
{
    std::vector<std::uint32_t> pes;
    for (std::uint32_t p : {256u, 1024u, 4096u, 16384u, 65536u})
        if (p <= max_pes)
            pes.push_back(p);
    return pes;
}

WeakOutcome
runWeakCase(std::uint32_t pes)
{
    const em3d::Config cfg = sweepConfig();

    // Three versions keep the big cases tractable while still
    // exercising gets, puts and bulk transfers (the mechanisms with
    // distinct shell state).
    const std::array<em3d::Version, 3> versions = {
        em3d::Version::Get, em3d::Version::Put, em3d::Version::Bulk};

    WeakOutcome out;
    out.pes = pes;

    // Small cases get the warmup + best-of-three treatment; at 4K+
    // PEs one pass runs long enough that cold-start noise is lost in
    // the measurement (and three passes would be a wait).
    const bool careful = pes <= 1024;
    const int timed_passes = careful ? 3 : 1;
    for (int pass = careful ? -1 : 0; pass < timed_passes; ++pass) {
        std::uint64_t sim_cycles = 0;
        std::uint64_t modeled = 0;
        double checksum = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (em3d::Version v : versions) {
            const em3d::Result r = em3d::run(cfg, v, pes);
            sim_cycles += r.elapsed;
            checksum += r.checksum;
            modeled = std::max(modeled, r.modeledBytes);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double host_s =
            std::chrono::duration<double>(t1 - t0).count();
        if (pass < 0)
            continue; // warmup
        if (out.hostSeconds == 0 || host_s < out.hostSeconds)
            out.hostSeconds = host_s;
        out.simCycles = sim_cycles;
        out.checksum = checksum;
        out.modeledBytes = modeled;
    }
    out.simPeCyclesPerHostSecond =
        double(out.simCycles) * pes / out.hostSeconds;
    out.modeledBytesPerPe = double(out.modeledBytes) / pes;
    out.hostPeakRssBytes = peakRssBytes();
    out.hostCurrentRssBytes = currentRssBytes();
    return out;
}

// ---------------------------------------------------------------------
// Application-suite throughput (docs/APPS.md)
// ---------------------------------------------------------------------

/** The application ladders at sizes that keep the 256-PE case
 *  short. The apps stress shell paths the EM3D sweep barely touches
 *  (all-to-all, dense face exchange), so their host throughput is
 *  tracked separately. */
std::vector<apps::App>
appSweepSuite()
{
    apps::bsort::Config bsort;
    bsort.keysPerPe = 256;
    apps::qcd::Config qcd;
    qcd.lx = qcd.ly = qcd.lz = qcd.lt = 2;
    qcd.sweeps = 1;
    return {apps::bsort::app(bsort), apps::qcd::app(qcd)};
}

/** The analytical model's evaluation cost next to simulation cost
 *  (docs/MODEL.md §7): one app ladder simulated, then answered by
 *  the composed model instead. */
struct ModelEval
{
    bool ran = false;
    double nsPerPrediction = 0;

    /** Simulated-seconds / model-seconds for one ladder. */
    double simVsModelSpeedup = 0;
};

ModelEval
runModelEval(const apps::App &app)
{
    ModelEval eval;
    std::string error;
    const std::vector<model::Sweep> sweeps = model::measureAll(&error);
    if (sweeps.empty()) {
        std::cerr << "model eval skipped: " << error << "\n";
        return eval;
    }
    const model::CostModel cm = model::fitCostModel(sweeps);

    // Same ladder both ways: simulate it at 32 PEs, then answer the
    // identical question with the model.
    const auto sim0 = std::chrono::steady_clock::now();
    const std::vector<model::LadderPoint> ladder =
        model::runLadder(app, 32);
    const auto sim1 = std::chrono::steady_clock::now();
    const double sim_seconds =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   sim1 - sim0)
                   .count()) /
        1e9;

    const int reps = 1000;
    double acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const model::LadderPoint &pt : ladder)
            acc += model::predict(cm, pt.sig).cycles;
    }
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(acc);
    const double ns =
        double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t1 - t0)
                   .count());
    eval.ran = true;
    eval.nsPerPrediction =
        ns / (double(reps) * double(ladder.size()));
    const double ladder_model_seconds =
        eval.nsPerPrediction * double(ladder.size()) / 1e9;
    if (ladder_model_seconds > 0)
        eval.simVsModelSpeedup = sim_seconds / ladder_model_seconds;
    return eval;
}

bool
writeSweepJson(const std::vector<LadderOutcome> &cases,
               const std::vector<WeakOutcome> &weak,
               const std::vector<LadderOutcome> &app_cases,
               const ModelEval &model_eval, const std::string &path)
{
    const em3d::Config cfg = sweepConfig();
    std::ofstream os(path);
    if (!os)
        return false;
    os.precision(17);
    os << "{\n"
       << "  \"bench\": \"sim_speed_em3d_sweep\",\n"
       << "  \"host_cores\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"host_peak_rss_bytes\": " << peakRssBytes() << ",\n"
       << "  \"host_rss_note\": \"host_peak_rss_bytes is the "
       << "process-lifetime high-water mark (ru_maxrss): it is "
       << "monotone, so per-row readings are cumulative, not "
       << "per-case; host_current_rss_bytes is a /proc/self/statm "
       << "sample taken right after the case and is the per-case "
       << "figure\",\n";
    // remote_fraction is a config literal (0.2), not a measurement:
    // print it at input precision, not as the nearest double
    // (0.20000000000000001).
    os.precision(6);
    os << "  \"config\": {\"nodes_per_pe\": " << cfg.nodesPerPe
       << ", \"degree\": " << cfg.degree
       << ", \"remote_fraction\": " << cfg.remoteFraction
       << ", \"iterations\": " << cfg.iterations
       << ", \"versions\": 6},\n";
    os.precision(17);
    os << "  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const LadderOutcome &c = cases[i];
        os << "    {\"pes\": " << c.pes
           << ", \"host_seconds\": " << c.hostSeconds
           << ", \"sim_cycles\": " << c.simCycles
           << ", \"sim_pe_cycles_per_host_second\": "
           << c.simPeCyclesPerHostSecond
           << ", \"checksum\": " << c.checksum << "}"
           << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"weak_scaling\": [\n";
    for (std::size_t i = 0; i < weak.size(); ++i) {
        const WeakOutcome &w = weak[i];
        os << "    {\"pes\": " << w.pes
           << ", \"host_seconds\": " << w.hostSeconds
           << ", \"sim_cycles\": " << w.simCycles
           << ", \"sim_pe_cycles_per_host_second\": "
           << w.simPeCyclesPerHostSecond
           << ", \"modeled_bytes\": " << w.modeledBytes
           << ", \"modeled_bytes_per_pe\": " << w.modeledBytesPerPe
           << ", \"host_peak_rss_bytes\": " << w.hostPeakRssBytes
           << ", \"host_current_rss_bytes\": "
           << w.hostCurrentRssBytes
           << ", \"checksum\": " << w.checksum << "}"
           << (i + 1 < weak.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"apps\": [\n";
    for (std::size_t i = 0; i < app_cases.size(); ++i) {
        const LadderOutcome &a = app_cases[i];
        os << "    {\"app\": \"" << a.app << "\", \"pes\": " << a.pes
           << ", \"host_seconds\": " << a.hostSeconds
           << ", \"sim_cycles\": " << a.simCycles
           << ", \"sim_pe_cycles_per_host_second\": "
           << a.simPeCyclesPerHostSecond
           << ", \"checksum\": " << a.checksum << "}"
           << (i + 1 < app_cases.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"model_eval\": {\"ran\": "
       << (model_eval.ran ? "true" : "false")
       << ", \"ns_per_prediction\": " << model_eval.nsPerPrediction
       << ", \"sim_vs_model_speedup\": "
       << model_eval.simVsModelSpeedup << "}\n"
       << "}\n";
    return bool(os);
}

} // namespace

int
main(int argc, char **argv)
{
    bool sweep_only = false;
    bool weak_only = false;
    std::uint32_t max_pes = 65536;
    for (int i = 1; i < argc;) {
        bool eat = true;
        if (std::strcmp(argv[i], "--sweep-only") == 0) {
            sweep_only = true;
        } else if (std::strcmp(argv[i], "--weak-only") == 0) {
            weak_only = true;
        } else if (std::strncmp(argv[i], "--max-pes=", 10) == 0) {
            max_pes = static_cast<std::uint32_t>(
                std::strtoul(argv[i] + 10, nullptr, 10));
        } else {
            eat = false;
        }
        if (eat) {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
        } else {
            ++i;
        }
    }

    if (!sweep_only && !weak_only) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }

    std::vector<LadderOutcome> cases;
    if (!weak_only) {
        const apps::App em3d_sweep = em3d::app(sweepConfig());
        for (std::uint32_t pes : {32u, 256u}) {
            const LadderOutcome c = runLadderCase(em3d_sweep, pes);
            std::cout << "em3d_sweep pes=" << c.pes
                      << " host_s=" << c.hostSeconds
                      << " sim_cycles=" << c.simCycles
                      << " sim_pe_cycles/s="
                      << c.simPeCyclesPerHostSecond
                      << " checksum=" << c.checksum << "\n";
            cases.push_back(c);
        }
    }
    std::vector<WeakOutcome> weak;
    for (std::uint32_t pes : weakScalingPes(max_pes)) {
        const WeakOutcome w = runWeakCase(pes);
        std::cout << "weak_scaling pes=" << w.pes
                  << " host_s=" << w.hostSeconds
                  << " sim_pe_cycles/s=" << w.simPeCyclesPerHostSecond
                  << " modeled_bytes/pe=" << w.modeledBytesPerPe
                  << " peak_rss=" << w.hostPeakRssBytes
                  << " current_rss=" << w.hostCurrentRssBytes
                  << " checksum=" << w.checksum << "\n";
        weak.push_back(w);
    }

    std::vector<LadderOutcome> app_cases;
    ModelEval model_eval;
    if (!weak_only) {
        const std::vector<apps::App> suite = appSweepSuite();
        for (std::uint32_t pes : {32u, 256u})
            for (const apps::App &app : suite)
                app_cases.push_back(runLadderCase(app, pes));
        for (const LadderOutcome &a : app_cases) {
            std::cout << "app_sweep app=" << a.app
                      << " pes=" << a.pes
                      << " host_s=" << a.hostSeconds
                      << " sim_cycles=" << a.simCycles
                      << " sim_pe_cycles/s="
                      << a.simPeCyclesPerHostSecond
                      << " checksum=" << a.checksum << "\n";
        }
        // The default-config qcd ladder, as apps::suite() lists it.
        model_eval = runModelEval(apps::qcd::app({}));
        if (model_eval.ran)
            std::cout << "model_eval ns/prediction="
                      << model_eval.nsPerPrediction
                      << " sim_vs_model_speedup="
                      << model_eval.simVsModelSpeedup << "\n";
    }

    if (!writeSweepJson(cases, weak, app_cases, model_eval,
                        "BENCH_sim_speed.json")) {
        std::cerr << "error: could not write BENCH_sim_speed.json\n";
        return 1;
    }
    std::cout << "wrote BENCH_sim_speed.json\n";
    return 0;
}
