/**
 * @file
 * Unit tests for the TLB model: miss/hit behavior, LRU replacement,
 * and the two configurations that differentiate Figure 1's machines
 * (huge pages on the T3D, 8 KB pages on the workstation).
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alpha/address.hh"
#include "alpha/tlb.hh"
#include "probes/counters.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace
{

using namespace t3dsim;
using alpha::Tlb;

/** A TLB counting its misses into `counters`. */
struct CountedTlb : Tlb
{
    explicit CountedTlb(const Config &config)
        : Tlb(config)
    {
        setCounters(&counters);
    }

    probes::PerfCounters counters;
};

TEST(Tlb, FirstAccessMisses)
{
    CountedTlb tlb({4, 8 * KiB, 35});
    EXPECT_EQ(tlb.access(0), 35u);
    EXPECT_EQ(tlb.counters.tlbMisses, 1u);
}

TEST(Tlb, SamePageHits)
{
    CountedTlb tlb({4, 8 * KiB, 35});
    tlb.access(0);
    EXPECT_EQ(tlb.access(8 * KiB - 8), 0u);
    EXPECT_EQ(tlb.access(100), 0u);
    EXPECT_EQ(tlb.counters.tlbMisses, 1u) << "one miss, two hits";
}

TEST(Tlb, DifferentPageMisses)
{
    Tlb tlb({4, 8 * KiB, 35});
    tlb.access(0);
    EXPECT_EQ(tlb.access(8 * KiB), 35u);
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb({2, 8 * KiB, 35});
    tlb.access(0 * 8 * KiB);  // A
    tlb.access(1 * 8 * KiB);  // B
    tlb.access(0 * 8 * KiB);  // touch A: B becomes LRU
    tlb.access(2 * 8 * KiB);  // C evicts B
    EXPECT_EQ(tlb.access(0 * 8 * KiB), 0u) << "A survived";
    EXPECT_EQ(tlb.access(1 * 8 * KiB), 35u) << "B was evicted";
}

TEST(Tlb, CapacityCoversWorkingSet)
{
    CountedTlb tlb({32, 8 * KiB, 35});
    // 32 pages: exactly covered.
    for (int round = 0; round < 3; ++round) {
        for (Addr p = 0; p < 32; ++p)
            tlb.access(p * 8 * KiB);
    }
    EXPECT_EQ(tlb.counters.tlbMisses, 32u) << "only cold misses";
}

TEST(Tlb, ThrashingBeyondCapacity)
{
    CountedTlb tlb({32, 8 * KiB, 35});
    // 64 pages round-robin with LRU: every access misses after warmup.
    for (int round = 0; round < 2; ++round) {
        for (Addr p = 0; p < 64; ++p)
            tlb.access(p * 8 * KiB);
    }
    EXPECT_EQ(tlb.counters.tlbMisses, 128u);
}

TEST(Tlb, HugePagesNeverThrash)
{
    // The T3D configuration: 32 entries of 4 MB cover 128 MB — the
    // whole node memory, hence no TLB inflection in Figure 1 (§2.2).
    CountedTlb tlb({32, 4 * MiB, 35});
    for (Addr a = 0; a < 128 * MiB; a += 16 * KiB)
        tlb.access(a);
    EXPECT_EQ(tlb.counters.tlbMisses, 32u) << "one cold miss per huge page";
    // Second sweep: all hits.
    for (Addr a = 0; a < 128 * MiB; a += 16 * KiB)
        EXPECT_EQ(tlb.access(a), 0u);
}

TEST(Tlb, FlushForgets)
{
    Tlb tlb({4, 8 * KiB, 35});
    tlb.access(0);
    tlb.flush();
    EXPECT_FALSE(tlb.contains(0));
    EXPECT_EQ(tlb.access(0), 35u);
}

TEST(Tlb, Contains)
{
    Tlb tlb({4, 8 * KiB, 35});
    EXPECT_FALSE(tlb.contains(0));
    tlb.access(0);
    EXPECT_TRUE(tlb.contains(4096));
}

/** Plain LRU over page numbers, most recent first: the reference
 *  the Tlb's shortcuts must reproduce. */
struct ReferenceLru
{
    unsigned entries;
    std::uint64_t pageBytes;
    Cycles missPenalty;
    std::vector<std::uint64_t> pages{};
    std::uint64_t misses = 0;

    Cycles
    access(Addr va)
    {
        const std::uint64_t page = va / pageBytes;
        const auto it = std::find(pages.begin(), pages.end(), page);
        const bool hit = it != pages.end();
        if (hit)
            pages.erase(it);
        else if (pages.size() == entries)
            pages.pop_back();
        pages.insert(pages.begin(), page);
        if (!hit)
            ++misses;
        return hit ? 0 : missPenalty;
    }
};

TEST(Tlb, MatchesReferenceLruOnMixedLocalAnnexedTraces)
{
    // Each phase alternates a local page and an annexed one, access
    // by access (the pattern the two-entry fast path serves), then
    // touches 1 to 40 random pages of a pool of 8 local and 40
    // annexed 8 KB pages. The pool exceeds the 32 entries, so entries
    // get evicted, and a sweep can push an alternated page to the
    // LRU end, where a stale use stamp would pick the wrong victim.
    for (std::uint64_t seed : {1u, 2u, 3u, 42u}) {
        Rng rng(seed);
        CountedTlb tlb({32, 8 * KiB, 35});
        ReferenceLru ref{32, 8 * KiB, 35};
        const auto touch = [&](std::uint64_t page) {
            const Addr base = page < 8
                ? page * 8 * KiB
                : alpha::makeAnnexedVa(
                      static_cast<unsigned>(1 + (page - 8) % 4),
                      (page - 8) / 4 * 8 * KiB);
            const Addr va = base + rng.nextBounded(8 * KiB);
            ASSERT_EQ(tlb.access(va), ref.access(va))
                << "seed " << seed << " page " << page;
        };
        for (int phase = 0; phase < 2000; ++phase) {
            const std::uint64_t local = rng.nextBounded(8);
            const std::uint64_t annexed = 8 + rng.nextBounded(40);
            for (std::uint64_t k = rng.nextBounded(8); k > 0; --k)
                touch(k % 2 ? local : annexed);
            for (std::uint64_t k = 1 + rng.nextBounded(40); k > 0; --k)
                touch(rng.nextBounded(48));
        }
        EXPECT_EQ(tlb.counters.tlbMisses, ref.misses) << "seed " << seed;
        EXPECT_GT(ref.misses, 32u) << "seed " << seed << ": no eviction";
    }
}

} // namespace
