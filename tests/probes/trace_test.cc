/**
 * @file
 * Chrome trace-event JSON writer tests. The "ts"/"dur" values are
 * produced with pure integer arithmetic (cycles * psPerCycle), so
 * the output is byte-exact and a golden-string comparison is stable
 * across hosts; the machine-level test checks a real 2-PE run
 * produces a loadable trace with the documented track layout.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "probes/trace.hh"
#include "splitc/executor.hh"
#include "splitc/proc.hh"

namespace
{

using namespace t3dsim;
using machine::Machine;
using machine::MachineConfig;
using probes::TraceSink;
using splitc::GlobalAddr;
using splitc::Proc;
using splitc::ProcTask;
using splitc::runSpmd;

TEST(Trace, GoldenJsonForHandBuiltEvents)
{
    TraceSink sink(2);
    // 91 cycles is the paper's uncached remote read latency; at
    // 6667 ps/cycle it is exactly 606,697 ps = 0.606697 us.
    sink.span(0, "remote_read", 100, 191, "dst", 1);
    sink.instant(1, "annex_update", 50);
    sink.counter("torus.x", 10, 3);

    std::ostringstream os;
    sink.writeJson(os);

    const std::string expected =
        "{\n"
        "\"displayTimeUnit\": \"ns\",\n"
        "\"traceEvents\": [\n"
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"args\": {\"name\": \"t3dsim\"}},\n"
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 0, \"args\": {\"name\": \"PE 0\"}},\n"
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 1, \"args\": {\"name\": \"PE 1\"}},\n"
        "{\"name\": \"remote_read\", \"cat\": \"shell\", \"ph\": \"X\", "
        "\"pid\": 0, \"tid\": 0, \"ts\": 0.666700, \"dur\": 0.606697, "
        "\"args\": {\"dst\": 1}},\n"
        "{\"name\": \"annex_update\", \"cat\": \"shell\", \"ph\": \"i\", "
        "\"s\": \"t\", \"pid\": 0, \"tid\": 1, \"ts\": 0.333350},\n"
        "{\"name\": \"torus.x\", \"ph\": \"C\", \"pid\": 0, "
        "\"ts\": 0.066670, \"args\": {\"traversals\": 3}}\n"
        "],\n"
        "\"otherData\": {\"droppedEvents\": 0}\n"
        "}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Trace, EventCapCountsDrops)
{
    TraceSink sink(1, /*event_cap=*/2);
    sink.instant(0, "a", 1);
    sink.instant(0, "b", 2);
    sink.instant(0, "c", 3);
    EXPECT_EQ(sink.eventCount(), 2u);
    EXPECT_EQ(sink.dropped(), 1u);

    std::ostringstream os;
    sink.writeJson(os);
    EXPECT_NE(os.str().find("\"droppedEvents\": 1"), std::string::npos);
}

TEST(Trace, MachineMicroRunProducesLoadableTrace)
{
    MachineConfig config = MachineConfig::t3d(2);
    config.observe.trace = true;
    config.observe.tracePath = "/dev/null"; // don't litter the cwd
    Machine m(config);
    ASSERT_NE(m.trace(), nullptr);

    runSpmd(m, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.readU64(GlobalAddr::make(1, 0x40000));
            p.writeU64(GlobalAddr::make(1, 0x40008), 7);
        }
        co_await p.barrier();
        co_return;
    });

    EXPECT_GT(m.trace()->eventCount(), 0u);
    EXPECT_EQ(m.trace()->dropped(), 0u);

    std::ostringstream os;
    m.writeTraceJson(os);
    const std::string s = os.str();

    // Structure Perfetto/chrome://tracing requires.
    EXPECT_EQ(s.front(), '{');
    EXPECT_NE(s.find("\"traceEvents\": ["), std::string::npos);
    // Named tracks for both PEs.
    EXPECT_NE(s.find("\"args\": {\"name\": \"PE 0\"}"),
              std::string::npos);
    EXPECT_NE(s.find("\"args\": {\"name\": \"PE 1\"}"),
              std::string::npos);
    // The events this program must have produced.
    EXPECT_NE(s.find("\"remote_read\""), std::string::npos);
    EXPECT_NE(s.find("\"remote_write\""), std::string::npos);
    EXPECT_NE(s.find("\"barrier\""), std::string::npos);
    EXPECT_NE(s.find("\"annex_update\""), std::string::npos);
    // Torus counter samples: PE 0 and 1 are torus neighbours along x.
    EXPECT_NE(s.find("\"torus.x\""), std::string::npos);
    EXPECT_NE(s.find("\"traversals\""), std::string::npos);

    // Every run of the same program yields the identical trace.
    Machine m2(config);
    runSpmd(m2, [&](Proc &p) -> ProcTask {
        if (p.pe() == 0) {
            p.readU64(GlobalAddr::make(1, 0x40000));
            p.writeU64(GlobalAddr::make(1, 0x40008), 7);
        }
        co_await p.barrier();
        co_return;
    });
    std::ostringstream os2;
    m2.writeTraceJson(os2);
    EXPECT_EQ(s, os2.str());
}

} // namespace
