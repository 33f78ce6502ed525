/**
 * @file
 * Property and unit tests for the address-space layout: module
 * geometry decoding and the swap-group / region / channel math of
 * the PoM organization (Sec. 2.3, Fig. 3).
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <type_traits>

#include "common/rng.hh"
#include "hybrid/layout.hh"
#include "mem/geometry.hh"

using namespace profess;
using namespace profess::hybrid;

TEST(ModuleGeometry, CapacityAndDecode)
{
    mem::ModuleGeometry g = mem::ModuleGeometry::withCapacity(2 * MiB);
    EXPECT_EQ(g.capacity(), 2 * MiB);
    EXPECT_EQ(g.banks, 16u);
    EXPECT_EQ(g.rowBytes, 8 * KiB);
    EXPECT_EQ(g.rowsPerBank, 16u);

    mem::DecodedAddr d = g.decode(0);
    EXPECT_EQ(d.bank, 0u);
    EXPECT_EQ(d.row, 0u);
    EXPECT_EQ(d.column, 0u);

    // Consecutive 8-KiB chunks interleave across banks.
    d = g.decode(8 * KiB);
    EXPECT_EQ(d.bank, 1u);
    EXPECT_EQ(d.row, 0u);
    d = g.decode(16 * 8 * KiB);
    EXPECT_EQ(d.bank, 0u);
    EXPECT_EQ(d.row, 1u);
}

TEST(ModuleGeometry, DecodeRoundTripProperty)
{
    mem::ModuleGeometry g = mem::ModuleGeometry::withCapacity(4 * MiB);
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.below64(g.capacity());
        mem::DecodedAddr d = g.decode(a);
        // Reconstruct the address from (bank, row, column).
        Addr back = (d.row * g.banks + d.bank) * g.rowBytes + d.column;
        EXPECT_EQ(back, a);
        EXPECT_LT(d.bank, g.banks);
        EXPECT_LT(d.row, g.rowsPerBank);
        EXPECT_LT(d.column, g.rowBytes);
    }
}

namespace
{

struct LayoutCase
{
    std::uint64_t m1Bytes;
    std::uint64_t m2Bytes;
    unsigned channels;
    unsigned regions;
    /** 64-bit so the struct has no padding: gtest names each case
     *  by its bytes, and padding bytes would change the names from
     *  build to build. */
    std::uint64_t slots;
};
static_assert(std::has_unique_object_representations_v<LayoutCase>,
              "LayoutCase must have no padding bytes");

class LayoutParam : public ::testing::TestWithParam<LayoutCase>
{
};

} // anonymous namespace

TEST_P(LayoutParam, BuildRespectsBudgetsAndAlignment)
{
    const LayoutCase &c = GetParam();
    HybridLayout l = HybridLayout::build(c.m1Bytes, c.m2Bytes,
                                         c.channels, c.regions,
                                         static_cast<unsigned>(c.slots));
    EXPECT_GT(l.numGroups, 0u);
    EXPECT_EQ(l.numGroups % c.channels, 0u);
    EXPECT_EQ((l.numGroups / 2) % c.regions, 0u);
    EXPECT_LE(l.m1BytesRequiredPerChannel(), c.m1Bytes);
    EXPECT_LE(l.m2BytesRequiredPerChannel(), c.m2Bytes);
    // Capacity ratio M1:M2 is 1:(slots-1) by construction.
    EXPECT_EQ(l.visibleBytes(),
              l.numGroups * c.slots * l.blockBytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutParam,
    ::testing::Values(
        LayoutCase{1 * MiB, 8 * MiB, 1, 32, 9},
        LayoutCase{1536 * KiB, 12 * MiB, 2, 32, 9},
        LayoutCase{2 * MiB, 8 * MiB, 1, 32, 5},
        LayoutCase{1 * MiB, 16 * MiB, 1, 32, 17},
        LayoutCase{8 * MiB, 64 * MiB, 2, 128, 9},
        LayoutCase{4 * MiB, 32 * MiB, 4, 64, 9},
        LayoutCase{1 * MiB, 8 * MiB, 1, 64, 9},
        LayoutCase{16 * MiB, 128 * MiB, 2, 128, 9}));

TEST(HybridLayout, BlockIndexRoundTrip)
{
    HybridLayout l = HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t ob = rng.below64(l.totalBlocks());
        std::uint64_t g = l.groupOf(ob);
        unsigned s = l.slotOf(ob);
        EXPECT_LT(g, l.numGroups);
        EXPECT_LT(s, l.slotsPerGroup);
        EXPECT_EQ(l.blockIndex(g, s), ob);
    }
}

TEST(HybridLayout, PageSpansTwoConsecutiveGroupsSameRegion)
{
    // Fig. 3: a 4-KiB page covers two consecutive swap groups that
    // map to the same region.
    HybridLayout l = HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    for (std::uint64_t page = 0; page < 500; ++page) {
        std::uint64_t b0 = page * 2, b1 = page * 2 + 1;
        if (b1 >= l.totalBlocks())
            break;
        std::uint64_t g0 = l.groupOf(b0), g1 = l.groupOf(b1);
        if (g1 == 0)
            continue; // wrap point
        EXPECT_EQ(g1, g0 + 1);
        EXPECT_EQ(l.regionOfGroup(g0), l.regionOfGroup(g1));
    }
}

TEST(HybridLayout, RegionsInterleaveUniformly)
{
    HybridLayout l = HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    std::vector<std::uint64_t> per_region(l.numRegions, 0);
    for (std::uint64_t g = 0; g < l.numGroups; ++g)
        ++per_region[l.regionOfGroup(g)];
    for (unsigned r = 1; r < l.numRegions; ++r)
        EXPECT_EQ(per_region[r], per_region[0]);
}

TEST(HybridLayout, DeviceAddressesAreUnique)
{
    HybridLayout l = HybridLayout::build(512 * KiB, 4 * MiB, 2, 32, 9);
    // Every (channel, module, block address) must be distinct.
    std::set<std::tuple<unsigned, int, Addr>> seen;
    for (std::uint64_t g = 0; g < l.numGroups; ++g) {
        auto key1 = std::make_tuple(l.channelOf(g), 1,
                                    l.m1BlockAddr(g));
        EXPECT_TRUE(seen.insert(key1).second);
        for (unsigned loc = 1; loc < l.slotsPerGroup; ++loc) {
            auto key2 = std::make_tuple(l.channelOf(g), 2,
                                        l.m2BlockAddr(g, loc));
            EXPECT_TRUE(seen.insert(key2).second);
        }
    }
}

TEST(HybridLayout, StAreaFollowsData)
{
    HybridLayout l = HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    for (std::uint64_t g = 0; g < l.numGroups; g += 37) {
        Addr st = l.stEntryAddr(g);
        EXPECT_GE(st, l.m1DataBytesPerChannel());
        EXPECT_LT(st, l.m1BytesRequiredPerChannel());
        EXPECT_EQ(st % 64, 0u);
    }
}

TEST(HybridLayout, ChannelInterleavesByGroup)
{
    HybridLayout l = HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    EXPECT_EQ(l.channelOf(0), 0u);
    EXPECT_EQ(l.channelOf(1), 1u);
    EXPECT_EQ(l.channelOf(2), 0u);
    EXPECT_EQ(l.localGroup(5), 2u);
}

TEST(HybridLayout, TooSmallMemoryFails)
{
    EXPECT_EXIT(
        HybridLayout::build(4 * KiB, 32 * KiB, 2, 128, 9),
        ::testing::ExitedWithCode(1), "too small");
}
