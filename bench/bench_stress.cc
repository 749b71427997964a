/**
 * @file
 * t3d-fuzz: seeded differential stress harness (docs/STRESS.md).
 *
 * Generates random-but-race-free Split-C traffic from a seed and
 * runs it twice with counters on and once with counters off: per-PE
 * finish times and memory checksums must match bit-for-bit, and the
 * two counters-on runs must agree on every per-PE counter.
 *
 *   t3d-fuzz                         # 50-seed corpus
 *   t3d-fuzz --seed 7                # one seed
 *   t3d-fuzz --seed 7 --repro        # print the op listing, then run
 *   t3d-fuzz --corpus 10 --base 100  # seeds 100..109
 *   t3d-fuzz --pes 4 --rounds 2 --ops 8
 *   t3d-fuzz --pes 2048 --corpus 2 --rounds 2 --ops 4
 *                                    # large-P differential configs
 *   t3d-fuzz --large-smoke           # fixed 1K/2K/4K-PE smoke corpus
 *   t3d-fuzz --flood 24 --am-slots 8 --ovf-slots 64
 *                                    # drive the AM overflow ring
 *   t3d-fuzz --saturate              # AM/message flood demo
 *   t3d-fuzz --json                  # machine-readable report
 *
 * Exit status: 0 when every seed passes, 1 on any divergence.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sim/json_writer.hh"
#include "stress/differential.hh"
#include "stress/generator.hh"

#include "cli.hh"

namespace
{

using namespace t3dsim;

struct CliOptions
{
    bool haveSeed = false;
    std::uint64_t seed = 0;
    std::uint64_t corpus = 50;
    std::uint64_t base = 1;

    /** Traffic shape of every seed (--pes, --rounds, --ops, flood). */
    stress::StressConfig traffic;

    bool repro = false;
    bool saturate = false;
    bool json = false;
    bool largeSmoke = false;
};

const char *const usageText =
    "usage: t3d-fuzz [--seed N | --corpus N [--base B]]\n"
    "                [--pes P] [--rounds R] [--ops K]\n"
    "                [--flood N] [--am-slots Q] [--ovf-slots V]\n"
    "                [--repro] [--saturate] [--large-smoke]\n"
    "                [--json]\n";

CliOptions
parseArgs(int argc, char **argv)
{
    cli::Args args(argc, argv, usageText);
    if (args.flag("--help") || args.flag("-h")) {
        std::cout << usageText;
        std::exit(0);
    }
    CliOptions opt;
    opt.haveSeed = args.value("--seed", opt.seed);
    args.value("--corpus", opt.corpus);
    args.value("--base", opt.base);
    args.value("--pes", opt.traffic.pes);
    args.value("--rounds", opt.traffic.rounds);
    args.value("--ops", opt.traffic.opsPerRound);
    args.value("--flood", opt.traffic.amFloodDeposits);
    args.value("--am-slots", opt.traffic.amQueueSlots);
    args.value("--ovf-slots", opt.traffic.amOverflowSlots);
    opt.repro = args.flag("--repro");
    opt.saturate = args.flag("--saturate");
    opt.largeSmoke = args.flag("--large-smoke");
    opt.json = args.flag("--json");
    args.done();
    if (opt.repro && !opt.haveSeed)
        args.fail("--repro needs --seed");
    return opt;
}

int
runSaturateDemo(const CliOptions &opt)
{
    const auto rep = stress::runSaturate();
    if (opt.json) {
        sim::JsonWriter w(std::cout);
        w.beginObject().member("mode", "saturate");
        w.member("completed", rep.completed);
        w.member("am_deposits", rep.amDeposits);
        w.member("am_overflows", rep.amOverflows);
        w.member("am_handled", rep.amHandled);
        w.member("msgs_sent", rep.msgsSent);
        w.member("msg_spills", rep.msgSpills);
        w.member("msgs_received", rep.msgsReceived);
        w.member("receiver_finish_cycles", rep.receiverFinish);
        w.endObject();
    } else {
        std::cout << "saturate: " << rep.amDeposits
                  << " AM deposits (" << rep.amOverflows
                  << " rerouted to the overflow ring, " << rep.amHandled
                  << " handled), " << rep.msgsSent << " messages ("
                  << rep.msgSpills << " spilled past the hardware "
                  << "queue, " << rep.msgsReceived
                  << " received); receiver finished at cycle "
                  << rep.receiverFinish << "\n";
    }
    const bool ok = rep.completed && rep.amHandled == rep.amDeposits &&
                    rep.msgsReceived == rep.msgsSent &&
                    rep.amOverflows > 0 && rep.msgSpills > 0;
    if (!ok)
        std::cerr << "saturate: FAILED (flood did not complete with "
                  << "modeled spill costs)\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    if (opt.saturate)
        return runSaturateDemo(opt);

    const auto makeConfig = [&](std::uint64_t seed) {
        stress::StressConfig cfg = opt.traffic;
        cfg.seed = seed;
        return cfg;
    };

    std::vector<stress::StressConfig> configs;
    if (opt.largeSmoke) {
        // Fixed large-P corpus: a few rounds of light traffic at PE
        // counts that straddle the fine-chunk storage threshold
        // (2048; see MachineConfig::fineChunkPes), so the sparse
        // chunk store, the radix barrier tree and the hashed channel
        // table all get differential coverage at scale.
        for (std::uint32_t pes : {1024u, 2048u, 4096u}) {
            stress::StressConfig cfg{opt.base + pes, pes, 2, 4};
            configs.push_back(cfg);
        }
    } else if (opt.haveSeed) {
        configs.push_back(makeConfig(opt.seed));
    } else {
        for (std::uint64_t s = 0; s < opt.corpus; ++s)
            configs.push_back(makeConfig(opt.base + s));
    }

    if (opt.repro)
        stress::Plan::build(makeConfig(opt.seed)).print(std::cout);

    std::uint64_t failures = 0;
    sim::JsonWriter json(std::cout);
    if (opt.json)
        json.beginArray(sim::JsonWriter::Layout::Lines);
    for (const stress::StressConfig &cfg : configs) {
        const auto rep = stress::runDifferential(cfg);
        if (!rep.pass)
            ++failures;
        if (opt.json) {
            json.beginObject().member("seed", rep.seed);
            json.member("pass", rep.pass);
            json.member("checksum", rep.reference.checksum);
            json.key("mismatches").beginArray();
            for (const std::string &msg : rep.mismatches)
                json.value(msg);
            json.endArray().endObject();
        } else {
            std::cout << "seed " << rep.seed << ": "
                      << (rep.pass ? "ok" : "FAIL") << "\n";
            for (const auto &msg : rep.mismatches)
                std::cout << "  " << msg << "\n";
        }
    }
    if (opt.json)
        json.endArray();

    if (!opt.json)
        std::cout << (configs.size() - failures) << "/" << configs.size()
                  << " seeds passed the differential check\n";
    if (failures != 0)
        std::cerr << "t3d-fuzz: " << failures
                  << " seed(s) diverged; rerun with --seed <N> "
                  << "--repro to print the op listing\n";
    return failures == 0 ? 0 : 1;
}
