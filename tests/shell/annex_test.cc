/**
 * @file
 * Unit tests for the DTB Annex register file (§3.2/§3.4).
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "probes/counters.hh"
#include "shell/annex.hh"
#include "sim/logging.hh"

namespace
{

using namespace t3dsim;
using shell::AnnexEntry;
using shell::AnnexFile;
using shell::ReadMode;

TEST(Annex, EntryZeroIsLocal)
{
    AnnexFile annex(5);
    EXPECT_EQ(annex.peOf(0), 5u);
    EXPECT_TRUE(annex.isProgrammed(0));
}

TEST(Annex, EntryZeroCannotBeRetargeted)
{
    detail::setThrowOnError(true);
    AnnexFile annex(5);
    EXPECT_THROW(annex.set(0, {7, ReadMode::Uncached}),
                 std::runtime_error);
    // Changing only the mode of entry 0 is allowed.
    EXPECT_NO_THROW(annex.set(0, {5, ReadMode::Cached}));
    detail::setThrowOnError(false);
}

TEST(Annex, SetAndGet)
{
    AnnexFile annex(0);
    annex.set(3, {17, ReadMode::Cached});
    EXPECT_EQ(annex.peOf(3), 17u);
    EXPECT_EQ(annex.get(3).readMode, ReadMode::Cached);
    EXPECT_TRUE(annex.isProgrammed(3));
    EXPECT_FALSE(annex.isProgrammed(4));
}

TEST(Annex, UpdateCount)
{
    // Updates are counted where the processor pays for them, in
    // Shell::setAnnex.
    machine::Machine m(machine::MachineConfig::t3d(4));
    auto &shell = m.node(0).shell();
    probes::PerfCounters ctr;
    shell.setObservability(&ctr, nullptr);
    shell.setAnnex(1, {1, ReadMode::Uncached});
    shell.setAnnex(1, {2, ReadMode::Uncached});
    shell.setAnnex(2, {3, ReadMode::Uncached});
    EXPECT_EQ(ctr.annexFaults, 3u);
}

TEST(Annex, SynonymDetection)
{
    AnnexFile annex(0);
    EXPECT_FALSE(annex.hasSynonyms()) << "only entry 0 programmed";
    annex.set(1, {7, ReadMode::Uncached});
    EXPECT_FALSE(annex.hasSynonyms());
    annex.set(2, {7, ReadMode::Uncached});
    EXPECT_TRUE(annex.hasSynonyms()) << "entries 1 and 2 both name 7";
}

TEST(Annex, SynonymWithLocalEntryZero)
{
    AnnexFile annex(4);
    annex.set(1, {4, ReadMode::Uncached}); // aliases entry 0
    EXPECT_TRUE(annex.hasSynonyms());
}

TEST(Annex, OutOfRangePanics)
{
    detail::setThrowOnError(true);
    AnnexFile annex(0);
    EXPECT_THROW(annex.get(32), std::runtime_error);
    EXPECT_THROW(annex.set(99, {1, ReadMode::Uncached}),
                 std::runtime_error);
    detail::setThrowOnError(false);
}

} // namespace
