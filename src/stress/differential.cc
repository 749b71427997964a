#include "stress/differential.hh"

#include <algorithm>
#include <sstream>

#include "machine/machine.hh"
#include "machine/node.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

namespace t3dsim::stress
{

namespace
{

/** Compare @p run against @p ref; append divergences to @p out. */
void
compare(const RunResult &ref, const RunResult &run,
        const std::string &name, std::vector<std::string> &out)
{
    if (run.finish != ref.finish) {
        std::ostringstream os;
        os << name << ": finish times diverge";
        for (std::size_t pe = 0; pe < ref.finish.size(); ++pe)
            if (run.finish[pe] != ref.finish[pe]) {
                os << " (first at pe" << pe << ": " << run.finish[pe]
                   << " != " << ref.finish[pe] << ")";
                break;
            }
        out.push_back(os.str());
    }
    if (run.checksum != ref.checksum) {
        std::ostringstream os;
        os << name << ": memory checksum " << std::hex << run.checksum
           << " != " << ref.checksum;
        out.push_back(os.str());
    }
    // Counter records are compared only between counters-on runs.
    if (!run.counters.empty() && !ref.counters.empty() &&
        run.counters != ref.counters) {
        for (std::size_t pe = 0; pe < ref.counters.size(); ++pe) {
            if (run.counters[pe] == ref.counters[pe])
                continue;
            const auto &infos = probes::PerfCounters::infos();
            for (std::size_t i = 0; i < infos.size(); ++i)
                if (run.counters[pe].value(i) !=
                    ref.counters[pe].value(i)) {
                    std::ostringstream os;
                    os << name << ": counter " << infos[i].name
                       << " at pe" << pe << ": "
                       << run.counters[pe].value(i)
                       << " != " << ref.counters[pe].value(i);
                    out.push_back(os.str());
                }
        }
    }
}

} // namespace

RunResult
runOnce(const Plan &plan, bool counters_on)
{
    machine::MachineConfig mc =
        machine::MachineConfig::t3d(plan.cfg.pes);
    mc.observe.counters = counters_on;

    machine::Machine m(mc);
    splitc::SplitcConfig scfg;
    if (plan.cfg.amQueueSlots != 0)
        scfg.amQueueSlots = plan.cfg.amQueueSlots;
    if (plan.cfg.amOverflowSlots != 0)
        scfg.amOverflowSlots = plan.cfg.amOverflowSlots;

    RunResult res;
    res.finish = runPlan(m, plan, scfg);
    res.checksum = memoryChecksum(m, plan);
    if (m.countersEnabled())
        for (PeId pe = 0; pe < plan.cfg.pes; ++pe)
            res.counters.push_back(m.node(pe).counters());
    return res;
}

SeedReport
runDifferential(const StressConfig &cfg)
{
    const Plan plan = Plan::build(cfg);

    SeedReport report;
    report.seed = cfg.seed;
    report.reference = runOnce(plan, /*counters_on=*/true);
    compare(report.reference, runOnce(plan, true), "rerun/counters-on",
            report.mismatches);
    compare(report.reference, runOnce(plan, false), "counters-off",
            report.mismatches);

    report.pass = report.mismatches.empty();
    return report;
}

SaturateReport
runSaturate()
{
    using splitc::Proc;
    using splitc::ProcTask;

    SaturateReport rep;
    rep.amDeposits = 512;  // 2x the 256-slot primary queue
    rep.msgsSent = 256;    // 4x the shrunken hardware queue

    machine::MachineConfig mc = machine::MachineConfig::t3d(2);
    mc.observe.counters = true;
    mc.shell.msgQueueCapacity = 64;

    machine::Machine m(mc);
    constexpr std::uint64_t tag = 20;
    std::uint64_t handled = 0, received = 0;

    const auto finish = splitc::runSpmd(m, [&](Proc &p) -> ProcTask {
        p.registerAmHandler(
            tag, [&](Proc &, const std::array<std::uint64_t, 4> &) {
                ++handled;
            });
        if (p.pe() == 0) {
            // Flood a parked receiver: the primary AM queue fills
            // and deposits reroute to the DRAM overflow ring; the
            // hardware message queue fills and messages spill.
            for (std::uint64_t i = 0; i < rep.amDeposits; ++i)
                p.amDeposit(1, tag, {i, 0, 0, 0});
            for (std::uint64_t i = 0; i < rep.msgsSent; ++i)
                p.sendMessage(1, {i, 0, 0, 0});
            co_await p.barrier();
        } else {
            co_await p.barrier();
            while (handled < rep.amDeposits) {
                co_await p.amWait();
                while (p.amPoll()) {
                }
            }
            for (std::uint64_t i = 0; i < rep.msgsSent; ++i) {
                co_await p.waitMessage();
                p.takeMessage(false);
                ++received;
            }
        }
        co_return;
    });

    rep.completed = true;
    rep.amHandled = handled;
    rep.msgsReceived = received;
    rep.amOverflows = m.node(0).counters().amOverflows;
    rep.msgSpills = m.node(1).counters().msgSpills;
    rep.receiverFinish = finish.size() > 1 ? finish[1] : 0;
    return rep;
}

} // namespace t3dsim::stress
