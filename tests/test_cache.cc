/**
 * @file
 * Tests for the set-associative cache model and the L1/L2/L3
 * hierarchy (Table 8).
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/rng.hh"

using namespace profess;
using namespace profess::cache;

namespace
{

Cache::Params
tiny(unsigned ways = 2, std::uint64_t capacity = 512)
{
    Cache::Params p;
    p.name = "tiny";
    p.capacityBytes = capacity; // 8 lines
    p.ways = ways;
    p.lineBytes = 64;
    p.hitLatency = 2;
    return p;
}

} // anonymous namespace

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(63, false).hit); // same line
    EXPECT_FALSE(c.access(64, false).hit);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruWithinSet)
{
    // 4 sets x 2 ways; lines mapping to set 0: 0, 4, 8, ... (x64).
    Cache c(tiny());
    c.access(0 * 64, false);
    c.access(4 * 64, false);
    c.access(0 * 64, false);     // 4*64 now LRU
    c.access(8 * 64, false);     // evicts 4*64
    EXPECT_TRUE(c.probe(0 * 64));
    EXPECT_FALSE(c.probe(4 * 64));
    EXPECT_TRUE(c.probe(8 * 64));
}

TEST(Cache, DirtyEvictionProducesWriteback)
{
    Cache c(tiny());
    c.access(0, true); // dirty
    c.access(4 * 64, false);
    Cache::Outcome o = c.access(8 * 64, false); // evicts line 0
    EXPECT_TRUE(o.writeback);
    EXPECT_EQ(o.writebackAddr, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c(tiny());
    c.access(0, false);
    c.access(4 * 64, false);
    Cache::Outcome o = c.access(8 * 64, false);
    EXPECT_FALSE(o.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(tiny());
    c.access(0, false);
    c.access(0, true); // hit, now dirty
    c.access(4 * 64, false);
    Cache::Outcome o = c.access(8 * 64, false);
    EXPECT_TRUE(o.writeback);
}

TEST(Cache, FlushDropsEverything)
{
    Cache c(tiny());
    c.access(0, true);
    c.flush();
    EXPECT_FALSE(c.probe(0));
    EXPECT_FALSE(c.access(0, false).hit);
}

TEST(Cache, SequentialFitsInCapacity)
{
    Cache c(tiny(4, 4096)); // 64 lines
    for (Addr a = 0; a < 4096; a += 64)
        c.access(a, false);
    // Second sweep entirely hits.
    for (Addr a = 0; a < 4096; a += 64)
        EXPECT_TRUE(c.access(a, false).hit);
    EXPECT_NEAR(c.hitRate(), 0.5, 1e-12);
}

class CacheSizeSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheSizeSweep, HitRateGrowsWithSize)
{
    // A Zipf-ish reuse stream: larger caches must not hit less.
    std::uint64_t capacity = GetParam();
    Cache c(tiny(4, capacity));
    Rng rng(99);
    const std::uint64_t footprint_lines = 512;
    std::uint64_t hits = 0, n = 20000;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t line = rng.below64(footprint_lines);
        line = line * line / footprint_lines; // skew toward 0
        hits += c.access(line * 64, false).hit;
    }
    double rate =
        static_cast<double>(hits) / static_cast<double>(n);
    // Stash for monotonicity check across instances.
    static double last_rate = -1.0;
    static std::uint64_t last_cap = 0;
    if (capacity > last_cap && last_rate >= 0.0) {
        EXPECT_GE(rate + 0.02, last_rate);
    }
    last_rate = rate;
    last_cap = capacity;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(1 * KiB, 2 * KiB, 4 * KiB,
                                           8 * KiB, 16 * KiB));

TEST(Hierarchy, L1HitStopsThere)
{
    Hierarchy h{Hierarchy::Params{}};
    Hierarchy::Outcome first = h.access(0, false);
    EXPECT_TRUE(first.l3Miss);
    Hierarchy::Outcome second = h.access(0, false);
    EXPECT_FALSE(second.l3Miss);
    EXPECT_EQ(second.latency, h.l1().hitLatency());
}

TEST(Hierarchy, MissLatencyAccumulates)
{
    Hierarchy h{Hierarchy::Params{}};
    Hierarchy::Outcome o = h.access(0, false);
    EXPECT_EQ(o.latency, h.l1().hitLatency() + h.l2().hitLatency() +
                             h.l3().hitLatency());
}

TEST(Hierarchy, DirtyL3VictimsReachMemory)
{
    // Small hierarchy to force L3 evictions quickly.
    Hierarchy::Params p;
    p.l1 = {"L1", 512, 2, 64, 2};
    p.l2 = {"L2", 1024, 2, 64, 8};
    p.l3 = {"L3", 2048, 2, 64, 20};
    Hierarchy h(p);
    std::uint64_t wbs = 0;
    for (Addr a = 0; a < 64 * KiB; a += 64)
        wbs += h.access(a, true).memWritebacks.size();
    EXPECT_GT(wbs, 0u);
}

TEST(Hierarchy, FiltersMpki)
{
    // A stream fitting in L3 must produce no misses after warmup.
    Hierarchy h{Hierarchy::Params{}};
    std::uint64_t misses = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr a = 0; a < 1 * MiB; a += 64) {
            bool miss = h.access(a, false).l3Miss;
            if (pass == 1)
                misses += miss;
        }
    }
    EXPECT_EQ(misses, 0u);
}
