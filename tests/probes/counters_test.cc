/**
 * @file
 * PerfCounters taxonomy / aggregation / report-writer tests, plus
 * machine-level checks that the bump sites fire where the taxonomy
 * says they do (and stay silent when observability is off).
 */

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "probes/counters.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

namespace
{

using namespace t3dsim;
using machine::Machine;
using machine::MachineConfig;
using probes::ObsConfig;
using probes::PerfCounters;
using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;
using splitc::runSpmd;

// ---------------------------------------------------------------------
// Struct-level: taxonomy table, aggregation, writers
// ---------------------------------------------------------------------

TEST(Counters, MemberTableCoversEveryField)
{
    // infos() and memberTable are generated from the same X-macro:
    // same length, and value(i) round-trips through setValue(i).
    EXPECT_EQ(PerfCounters::infos().size(), PerfCounters::numCounters);

    PerfCounters c;
    for (std::size_t i = 0; i < PerfCounters::numCounters; ++i) {
        EXPECT_EQ(c.value(i), 0u);
        c.setValue(i, i + 1);
    }
    for (std::size_t i = 0; i < PerfCounters::numCounters; ++i)
        EXPECT_EQ(c.value(i), i + 1);
}

TEST(Counters, InfosAreNamedAndDocumented)
{
    for (const auto &info : PerfCounters::infos()) {
        EXPECT_NE(info.name, nullptr);
        EXPECT_STRNE(info.name, "");
        EXPECT_STRNE(info.unit, "");
        EXPECT_STRNE(info.site, "");
        EXPECT_STRNE(info.paper, "");
    }
}

TEST(Counters, AggregateSumsFieldwise)
{
    PerfCounters a;
    a.l1Hits = 3;
    a.remoteReads = 1;
    PerfCounters b;
    b.l1Hits = 4;
    b.torusHops = 9;

    const PerfCounters total = probes::aggregate({a, b});
    EXPECT_EQ(total.l1Hits, 7u);
    EXPECT_EQ(total.remoteReads, 1u);
    EXPECT_EQ(total.torusHops, 9u);
    EXPECT_EQ(total.barriers, 0u);

    PerfCounters sum = a;
    sum += b;
    EXPECT_EQ(sum, total);
}

TEST(Counters, JsonReportHasSchemaTotalsAndPerPe)
{
    PerfCounters a;
    a.remoteReads = 2;
    PerfCounters b;
    b.remoteReads = 5;

    std::ostringstream os;
    probes::writeCountersJson(os, {a, b});
    const std::string s = os.str();

    EXPECT_NE(s.find("\"schema\": \"t3dsim-counters-v1\""),
              std::string::npos);
    EXPECT_NE(s.find("\"pes\": 2"), std::string::npos);
    EXPECT_NE(s.find("\"remoteReads\": 7"), std::string::npos);
    EXPECT_NE(s.find("\"per_pe\""), std::string::npos);
    // No torus section unless stats are supplied.
    EXPECT_EQ(s.find("\"torus\""), std::string::npos);
}

TEST(Counters, JsonReportIncludesTorusStats)
{
    probes::TorusLinkStats torus;
    torus.dx = 2;
    torus.dy = 2;
    torus.dz = 1;
    torus.dimTraversals = {5, 3, 0};
    torus.linkTraversals.assign(4 * 3, 0);
    torus.linkTraversals[0 * 3 + 0] = 5;

    std::ostringstream os;
    probes::writeCountersJson(os, {PerfCounters{}}, &torus);
    const std::string s = os.str();

    EXPECT_NE(s.find("\"dims\": [2, 2, 1]"), std::string::npos);
    EXPECT_NE(s.find("\"dim_traversals\": [5, 3, 0]"),
              std::string::npos);
    EXPECT_NE(s.find("\"link_traversals\""), std::string::npos);
}

TEST(Counters, CsvReportHasHeaderPerPeAndTotalRows)
{
    PerfCounters a;
    a.l1Misses = 8;

    std::ostringstream os;
    probes::writeCountersCsv(os, {a, PerfCounters{}});
    const std::string s = os.str();

    EXPECT_EQ(s.rfind("pe,l1Hits,l1Misses", 0), 0u); // header first
    EXPECT_NE(s.find("\n0,0,8,"), std::string::npos);
    EXPECT_NE(s.find("\ntotal,0,8,"), std::string::npos);
}

// ---------------------------------------------------------------------
// Environment overrides
// ---------------------------------------------------------------------

TEST(Counters, FromEnvEnablesAndOverridesPaths)
{
    setenv("T3DSIM_COUNTERS", "1", 1);
    setenv("T3DSIM_TRACE", "/tmp/custom.trace.json", 1);
    const ObsConfig obs = ObsConfig::fromEnv(ObsConfig{});
    unsetenv("T3DSIM_COUNTERS");
    unsetenv("T3DSIM_TRACE");

    EXPECT_TRUE(obs.counters);
    EXPECT_EQ(obs.countersPath, "t3dsim.counters.json");
    EXPECT_TRUE(obs.trace);
    EXPECT_EQ(obs.tracePath, "/tmp/custom.trace.json");
}

TEST(Counters, FromEnvZeroKeepsBase)
{
    // "0" and the empty value add nothing and take nothing away: a
    // channel the config asks for stays on, with its own path or none.
    ObsConfig base;
    base.counters = true;
    base.countersPath = "mine.json";
    base.trace = true;
    for (const char *value : {"0", ""}) {
        setenv("T3DSIM_COUNTERS", value, 1);
        setenv("T3DSIM_TRACE", value, 1);
        const ObsConfig obs = ObsConfig::fromEnv(base);
        unsetenv("T3DSIM_COUNTERS");
        unsetenv("T3DSIM_TRACE");

        EXPECT_TRUE(obs.counters) << "'" << value << "'";
        EXPECT_EQ(obs.countersPath, "mine.json") << "'" << value << "'";
        EXPECT_TRUE(obs.trace) << "'" << value << "'";
        EXPECT_EQ(obs.tracePath, "") << "'" << value << "'";
    }

    // And a config with the channels off stays off.
    setenv("T3DSIM_COUNTERS", "0", 1);
    setenv("T3DSIM_TRACE", "0", 1);
    const ObsConfig off = ObsConfig::fromEnv(ObsConfig{});
    unsetenv("T3DSIM_COUNTERS");
    unsetenv("T3DSIM_TRACE");
    EXPECT_FALSE(off.counters);
    EXPECT_FALSE(off.trace);
}

TEST(Counters, FromEnvKeepsConfigPath)
{
    // A path the config names is the one the program reports, so
    // neither "1" nor a path from the environment replaces it; a
    // channel without one takes the environment's.
    ObsConfig base;
    base.counters = true;
    base.countersPath = "mine.json";
    for (const char *value : {"1", "env.json"}) {
        setenv("T3DSIM_COUNTERS", value, 1);
        setenv("T3DSIM_TRACE", value, 1);
        const ObsConfig obs = ObsConfig::fromEnv(base);
        unsetenv("T3DSIM_COUNTERS");
        unsetenv("T3DSIM_TRACE");

        EXPECT_EQ(obs.countersPath, "mine.json") << value;
        EXPECT_TRUE(obs.trace) << value;
        EXPECT_EQ(obs.tracePath, value == std::string("1")
                                     ? "t3dsim.trace.json"
                                     : value)
            << value;
    }
}

TEST(Counters, FromEnvAbsentKeepsBase)
{
    unsetenv("T3DSIM_COUNTERS");
    unsetenv("T3DSIM_TRACE");
    ObsConfig base;
    base.counters = true;
    base.countersPath = "mine.json";
    const ObsConfig obs = ObsConfig::fromEnv(base);
    EXPECT_TRUE(obs.counters);
    EXPECT_EQ(obs.countersPath, "mine.json");
    EXPECT_FALSE(obs.trace);
}

// ---------------------------------------------------------------------
// Machine-level bump sites
// ---------------------------------------------------------------------

/** 2-PE program touching most shell mechanisms. */
void
runMicroProgram(Machine &m)
{
    runSpmd(m, [&](Proc &p) -> ProcTask {
        // A cached local access so the L1 counters see traffic.
        p.node().core().storeU64(0x20000, p.pe());
        p.node().core().loadU64(0x20000);
        if (p.pe() == 0) {
            p.readU64(GlobalAddr::make(1, 0x40000));
            p.writeU64(GlobalAddr::make(1, 0x40008), 7);
            p.getU64(GlobalAddr::make(1, 0x40000), 0x50000);
            p.sync();
            p.fetchInc(1, 0);
        }
        co_await p.barrier();
        co_return;
    });
}

TEST(Counters, MachineRunBumpsShellCounters)
{
    MachineConfig config = MachineConfig::t3d(2);
    config.observe.counters = true;
    Machine m(config);
    ASSERT_TRUE(m.countersEnabled());

    runMicroProgram(m);

    const PerfCounters &pe0 = m.node(0).counters();
    EXPECT_EQ(pe0.remoteReads, 1u);
    EXPECT_GE(pe0.remoteWriteLines, 1u);
    EXPECT_EQ(pe0.prefetchIssues, 1u);
    EXPECT_EQ(pe0.prefetchDrains, 1u);
    EXPECT_EQ(pe0.fetchIncRoundTrips, 1u);
    EXPECT_GE(pe0.annexFaults, 1u);
    EXPECT_EQ(pe0.barriers, 1u);
    EXPECT_GT(pe0.torusHops, 0u);
    // The remote accesses ran against PE 1's memory.
    EXPECT_GT(m.node(1).counters().dramPageHits +
                  m.node(1).counters().dramPageMisses,
              0u);

    const PerfCounters total = m.totalCounters();
    EXPECT_EQ(total.barriers, 2u);
    EXPECT_GE(total.l1Hits + total.l1Misses, 1u);

    std::ostringstream os;
    m.writeCounterJson(os);
    EXPECT_NE(os.str().find("\"torus\""), std::string::npos);
}

TEST(Counters, DisabledMachineStaysSilent)
{
    // Default config: no counters, no trace; records must stay zero.
    Machine m(MachineConfig::t3d(2));
    EXPECT_FALSE(m.countersEnabled());
    EXPECT_EQ(m.trace(), nullptr);

    runMicroProgram(m);

    EXPECT_EQ(m.totalCounters(), PerfCounters{});
    EXPECT_EQ(m.node(0).countersIfEnabled(), nullptr);
}

} // namespace
