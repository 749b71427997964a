/**
 * @file
 * Host-side simulator throughput: how fast the model itself executes
 * simulated operations. Not a paper figure — this guards the
 * usability of the library (slow models make the Figure 9 sweeps
 * impractical). Per-call micro timings and the application ladders
 * are perfbench's job (perfbench/README.md); this binary keeps the
 * end-to-end sweeps nothing else runs.
 *
 * An EM3D-sweep throughput case (all six Figure 9 versions) runs at
 * 32 and 256 PEs; its sim_cycles and checksums are the determinism
 * anchors. Results go to BENCH_sim_speed.json so successive changes
 * can track the host-performance trajectory.
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
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "apps/app.hh"
#include "apps/qcd/qcd.hh"
#include "em3d/em3d.hh"
#include "machine/machine.hh"
#include "model/compose.hh"
#include "model/measure.hh"
#include "model/primitives.hh"
#include "model/validate.hh"
#include "sim/json_writer.hh"

#include "cli.hh"

using namespace t3dsim;

namespace
{

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

/** Host seconds of the fastest of @p passes timed calls of @p pass,
 *  after one untimed warmup call when @p warmup. The simulation is
 *  deterministic: every pass leaves the same results behind. */
template <typename Fn>
double
bestOf(int passes, bool warmup, Fn &&pass)
{
    if (warmup)
        pass();
    double best = 0;
    for (int i = 0; i < passes; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        pass();
        const std::chrono::duration<double> host_s =
            std::chrono::steady_clock::now() - t0;
        if (best == 0 || host_s.count() < best)
            best = host_s.count();
    }
    return best;
}

/** Every rung of @p app at @p pes, counters off, timed; a rung
 *  that failed the app's own check is named and clears @p ok. */
LadderOutcome
runLadderCase(const apps::App &app, std::uint32_t pes, bool &ok)
{
    LadderOutcome out;
    out.pes = pes;

    // Warmup plus best of three: the 32-PE case finishes in
    // milliseconds, where cold-start and scheduler noise would
    // dominate a single cold measurement.
    std::vector<model::LadderPoint> ladder;
    out.hostSeconds = bestOf(3, true, [&] {
        ladder = model::runLadder(app, machine::MachineConfig::t3d(pes));
    });
    for (const model::LadderPoint &pt : ladder) {
        out.simCycles += pt.result.elapsed;
        out.checksum += pt.result.checksum;
    }
    out.simPeCyclesPerHostSecond =
        double(out.simCycles) * pes / out.hostSeconds;
    ok &= model::allRungsValid(ladder, std::cerr);
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
    out.hostSeconds = bestOf(careful ? 3 : 1, careful, [&] {
        out.simCycles = 0;
        out.checksum = 0;
        out.modeledBytes = 0;
        for (em3d::Version v : versions) {
            const em3d::Result r = em3d::run(cfg, v, pes);
            out.simCycles += r.elapsed;
            out.checksum += r.checksum;
            out.modeledBytes = std::max(out.modeledBytes, r.modeledBytes);
        }
    });
    out.simPeCyclesPerHostSecond =
        double(out.simCycles) * pes / out.hostSeconds;
    out.modeledBytesPerPe = double(out.modeledBytes) / pes;
    out.hostPeakRssBytes = peakRssBytes();
    out.hostCurrentRssBytes = currentRssBytes();
    return out;
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
runModelEval(const apps::App &app, bool &ok)
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
        model::runLadder(app, model::countedT3d(32));
    const std::chrono::duration<double> sim_seconds =
        std::chrono::steady_clock::now() - sim0;
    ok &= model::allRungsValid(ladder, std::cerr);

    eval.ran = true;
    eval.nsPerPrediction = model::nsPerPrediction(cm, ladder);
    const double ladder_model_seconds =
        eval.nsPerPrediction * double(ladder.size()) / 1e9;
    if (ladder_model_seconds > 0)
        eval.simVsModelSpeedup =
            sim_seconds.count() / ladder_model_seconds;
    return eval;
}

bool
writeSweepJson(const std::vector<LadderOutcome> &cases,
               const std::vector<WeakOutcome> &weak,
               const ModelEval &model_eval, const std::string &path)
{
    using Layout = sim::JsonWriter::Layout;
    const em3d::Config cfg = sweepConfig();
    std::ofstream os(path);
    sim::JsonWriter w(os);
    w.beginObject(Layout::Lines).member("bench", "sim_speed_em3d_sweep");
    w.member("host_cores", std::thread::hardware_concurrency());
    w.member("host_peak_rss_bytes", peakRssBytes());
    w.member("host_rss_note",
             "host_peak_rss_bytes is the process-lifetime high-water "
             "mark (ru_maxrss): it is monotone, so per-row readings are "
             "cumulative, not per-case; host_current_rss_bytes is a "
             "/proc/self/statm sample taken right after the case and is "
             "the per-case figure");
    w.key("config").beginObject().member("nodes_per_pe", cfg.nodesPerPe);
    w.member("degree", cfg.degree);
    w.member("remote_fraction", cfg.remoteFraction);
    w.member("iterations", cfg.iterations).member("versions", 6);
    w.endObject().key("cases").beginArray(Layout::Lines);
    for (const LadderOutcome &c : cases) {
        w.beginObject().member("pes", c.pes);
        w.member("host_seconds", c.hostSeconds);
        w.member("sim_cycles", c.simCycles);
        w.member("sim_pe_cycles_per_host_second",
                 c.simPeCyclesPerHostSecond);
        w.key("checksum");
        c.checksum.visit([&w](auto v) { w.value(v); });
        w.endObject();
    }
    w.endArray().key("weak_scaling").beginArray(Layout::Lines);
    for (const WeakOutcome &o : weak) {
        w.beginObject().member("pes", o.pes);
        w.member("host_seconds", o.hostSeconds);
        w.member("sim_cycles", o.simCycles);
        w.member("sim_pe_cycles_per_host_second",
                 o.simPeCyclesPerHostSecond);
        w.member("modeled_bytes", o.modeledBytes);
        w.member("modeled_bytes_per_pe", o.modeledBytesPerPe);
        w.member("host_peak_rss_bytes", o.hostPeakRssBytes);
        w.member("host_current_rss_bytes", o.hostCurrentRssBytes);
        w.member("checksum", o.checksum).endObject();
    }
    w.endArray().key("model_eval").beginObject();
    w.member("ran", model_eval.ran);
    w.member("ns_per_prediction", model_eval.nsPerPrediction);
    w.member("sim_vs_model_speedup", model_eval.simVsModelSpeedup);
    w.endObject().endObject();
    return bool(os);
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Args args(argc, argv,
                   "usage: bench_sim_speed [--weak-only] [--max-pes=N]\n");
    const bool weak_only = args.flag("--weak-only");
    std::uint32_t max_pes = 65536;
    args.value("--max-pes", max_pes);
    args.done();

    std::vector<LadderOutcome> cases;
    bool ok = true;
    if (!weak_only) {
        const apps::App em3d_sweep = em3d::app(sweepConfig());
        for (std::uint32_t pes : {32u, 256u}) {
            const LadderOutcome c = runLadderCase(em3d_sweep, pes, ok);
            std::cout << "em3d_sweep pes=" << c.pes
                      << " host_s=" << c.hostSeconds
                      << " sim_cycles=" << c.simCycles
                      << " sim_pe_cycles/s=" << c.simPeCyclesPerHostSecond
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

    ModelEval model_eval;
    if (!weak_only) {
        // The default-config qcd ladder, as apps::suite() lists it.
        model_eval = runModelEval(apps::qcd::app({}), ok);
        if (model_eval.ran)
            std::cout << "model_eval ns/prediction="
                      << model_eval.nsPerPrediction
                      << " sim_vs_model_speedup="
                      << model_eval.simVsModelSpeedup << "\n";
    }

    if (!ok)
        return 1;
    if (!writeSweepJson(cases, weak, model_eval, "BENCH_sim_speed.json")) {
        std::cerr << "error: could not write BENCH_sim_speed.json\n";
        return 1;
    }
    std::cout << "wrote BENCH_sim_speed.json\n";
    return 0;
}
