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
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "stress/differential.hh"
#include "stress/generator.hh"

namespace
{

using namespace t3dsim;

struct CliOptions
{
    bool haveSeed = false;
    std::uint64_t seed = 0;
    std::uint64_t corpus = 50;
    std::uint64_t base = 1;
    std::uint32_t pes = 8;
    std::uint32_t rounds = 4;
    std::uint32_t ops = 12;
    std::uint32_t flood = 0;
    std::uint32_t amSlots = 0;
    std::uint32_t ovfSlots = 0;
    bool repro = false;
    bool saturate = false;
    bool json = false;
    bool largeSmoke = false;
};

[[noreturn]] void
usage(int status)
{
    std::cerr
        << "usage: t3d-fuzz [--seed N | --corpus N [--base B]]\n"
        << "                [--pes P] [--rounds R] [--ops K]\n"
        << "                [--flood N] [--am-slots Q] [--ovf-slots V]\n"
        << "                [--repro] [--saturate] [--large-smoke]\n"
        << "                [--json]\n";
    std::exit(status);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--seed") {
            opt.haveSeed = true;
            opt.seed = std::stoull(value());
        } else if (arg == "--corpus") {
            opt.corpus = std::stoull(value());
        } else if (arg == "--base") {
            opt.base = std::stoull(value());
        } else if (arg == "--pes") {
            opt.pes = std::uint32_t(std::stoul(value()));
        } else if (arg == "--rounds") {
            opt.rounds = std::uint32_t(std::stoul(value()));
        } else if (arg == "--ops") {
            opt.ops = std::uint32_t(std::stoul(value()));
        } else if (arg == "--flood") {
            opt.flood = std::uint32_t(std::stoul(value()));
        } else if (arg == "--am-slots") {
            opt.amSlots = std::uint32_t(std::stoul(value()));
        } else if (arg == "--ovf-slots") {
            opt.ovfSlots = std::uint32_t(std::stoul(value()));
        } else if (arg == "--repro") {
            opt.repro = true;
        } else if (arg == "--saturate") {
            opt.saturate = true;
        } else if (arg == "--large-smoke") {
            opt.largeSmoke = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "t3d-fuzz: unknown option " << arg << "\n";
            usage(2);
        }
    }
    if (opt.repro && !opt.haveSeed) {
        std::cerr << "t3d-fuzz: --repro needs --seed\n";
        usage(2);
    }
    return opt;
}

int
runSaturateDemo(const CliOptions &opt)
{
    const auto rep = stress::runSaturate();
    if (opt.json) {
        std::cout << "{\"mode\": \"saturate\", \"completed\": "
                  << (rep.completed ? "true" : "false")
                  << ", \"am_deposits\": " << rep.amDeposits
                  << ", \"am_overflows\": " << rep.amOverflows
                  << ", \"am_handled\": " << rep.amHandled
                  << ", \"msgs_sent\": " << rep.msgsSent
                  << ", \"msg_spills\": " << rep.msgSpills
                  << ", \"msgs_received\": " << rep.msgsReceived
                  << ", \"receiver_finish_cycles\": "
                  << rep.receiverFinish << "}\n";
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
        stress::StressConfig cfg{seed, opt.pes, opt.rounds, opt.ops};
        cfg.amFloodDeposits = opt.flood;
        cfg.amQueueSlots = opt.amSlots;
        cfg.amOverflowSlots = opt.ovfSlots;
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
    if (opt.json)
        std::cout << "[\n";
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto rep = stress::runDifferential(configs[i]);
        if (!rep.pass)
            ++failures;
        if (opt.json) {
            std::cout << "  {\"seed\": " << rep.seed << ", \"pass\": "
                      << (rep.pass ? "true" : "false")
                      << ", \"checksum\": " << rep.reference.checksum
                      << ", \"mismatches\": [";
            for (std::size_t k = 0; k < rep.mismatches.size(); ++k)
                std::cout << (k ? ", " : "") << '"'
                          << rep.mismatches[k] << '"';
            std::cout << "]}" << (i + 1 < configs.size() ? "," : "")
                      << "\n";
        } else {
            std::cout << "seed " << rep.seed << ": "
                      << (rep.pass ? "ok" : "FAIL") << "\n";
            for (const auto &msg : rep.mismatches)
                std::cout << "  " << msg << "\n";
        }
    }
    if (opt.json)
        std::cout << "]\n";

    if (!opt.json)
        std::cout << (configs.size() - failures) << "/" << configs.size()
                  << " seeds passed the differential check\n";
    if (failures != 0)
        std::cerr << "t3d-fuzz: " << failures
                  << " seed(s) diverged; rerun with --seed <N> "
                  << "--repro to print the op listing\n";
    return failures == 0 ? 0 : 1;
}
