/**
 * @file
 * Tests for the region-aware first-touch page allocator
 * (Sec. 3.1.1): private-region exclusivity, uniform interleaving,
 * stable translations, ownership tracking, and the lazy shuffle's
 * equivalence with an eager one (and of Rng::below with the plain
 * rejection loop it shortcuts).
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "os/page_allocator.hh"

using namespace profess;
using namespace profess::os;

namespace
{

constexpr std::uint64_t groups = 1024; // G/2 = 512, regions 32
constexpr unsigned slots = 9;
constexpr unsigned regions = 32;
constexpr unsigned programs = 4;

PageAllocator
makeAlloc()
{
    return PageAllocator(groups, slots, regions, programs, 7);
}

} // anonymous namespace

TEST(PageAllocator, FrameCount)
{
    PageAllocator a = makeAlloc();
    EXPECT_EQ(a.numFrames(), groups * slots / 2);
}

TEST(PageAllocator, RegionGeometryMatchesFig3)
{
    PageAllocator a = makeAlloc();
    // Frame f covers groups 2f, 2f+1 (mod G); region must equal the
    // groups' region.
    for (std::uint64_t f = 0; f < 200; ++f) {
        unsigned rf = a.regionOfFrame(f);
        unsigned rg = a.regionOfGroup((2 * f) % groups);
        EXPECT_EQ(rf, rg);
        EXPECT_EQ(rg, a.regionOfGroup((2 * f + 1) % groups));
    }
}

TEST(PageAllocator, RegionsUniform)
{
    PageAllocator a = makeAlloc();
    std::vector<std::uint64_t> per(regions, 0);
    for (std::uint64_t f = 0; f < a.numFrames(); ++f)
        ++per[a.regionOfFrame(f)];
    for (unsigned r = 1; r < regions; ++r)
        EXPECT_EQ(per[r], per[0]);
}

TEST(PageAllocator, PrivateOwnership)
{
    PageAllocator a = makeAlloc();
    for (unsigned r = 0; r < regions; ++r) {
        if (r < programs)
            EXPECT_EQ(a.privateOwner(r), static_cast<ProgramId>(r));
        else
            EXPECT_EQ(a.privateOwner(r), invalidProgram);
    }
    EXPECT_EQ(a.privateRegionOf(2), 2u);
}

TEST(PageAllocator, TranslationIsStable)
{
    PageAllocator a = makeAlloc();
    std::uint64_t f1 = a.translate(0, 42);
    std::uint64_t f2 = a.translate(0, 42);
    EXPECT_EQ(f1, f2);
    EXPECT_EQ(a.allocatedFrames(0), 1u);
}

TEST(PageAllocator, TranslationCacheCountsHits)
{
    PageAllocator a = makeAlloc();
    // First touch misses; repeats of the same (program, vpage) hit
    // the one-entry cache, a different page misses again.
    a.translate(0, 42);
    a.translate(0, 42);
    a.translate(0, 42);
    a.translate(0, 7);
    a.translate(0, 42); // evicted by vpage 7: miss
    EXPECT_EQ(a.stats().counter("translations"), 5u);
    EXPECT_EQ(a.stats().counter("cache_hits"), 2u);
    EXPECT_NEAR(a.cacheHitRate(), 2.0 / 5.0, 1e-12);
}

TEST(PageAllocator, TranslationCacheIsPerProgram)
{
    PageAllocator a = makeAlloc();
    // Interleaved programs must not evict each other's entry.
    a.translate(0, 42);
    a.translate(1, 42);
    std::uint64_t f0 = a.translate(0, 42); // hit, program 0's entry
    std::uint64_t f1 = a.translate(1, 42); // hit, program 1's entry
    EXPECT_EQ(a.stats().counter("cache_hits"), 2u);
    EXPECT_NE(f0, f1); // distinct programs, distinct frames
    // Releasing a program invalidates its cached entry.
    a.releaseProgram(1);
    a.translate(1, 42);
    EXPECT_EQ(a.stats().counter("cache_hits"), 2u);
}

TEST(PageAllocator, DistinctPagesDistinctFrames)
{
    PageAllocator a = makeAlloc();
    std::set<std::uint64_t> frames;
    for (std::uint64_t v = 0; v < 500; ++v)
        EXPECT_TRUE(frames.insert(a.translate(1, v)).second);
}

TEST(PageAllocator, PrivateRegionsExcludeOthers)
{
    PageAllocator a = makeAlloc();
    // Allocate heavily for every program; no frame may land in
    // another program's private region.
    for (unsigned p = 0; p < programs; ++p) {
        for (std::uint64_t v = 0; v < 400; ++v) {
            std::uint64_t f =
                a.translate(static_cast<ProgramId>(p), v);
            unsigned r = a.regionOfFrame(f);
            ProgramId priv = a.privateOwner(r);
            if (priv != invalidProgram) {
                EXPECT_EQ(priv, static_cast<ProgramId>(p));
            }
        }
    }
}

TEST(PageAllocator, OwnPrivateRegionIsUsed)
{
    PageAllocator a = makeAlloc();
    bool private_hit = false;
    for (std::uint64_t v = 0; v < 2000 && !private_hit; ++v) {
        std::uint64_t f = a.translate(0, v);
        private_hit = a.regionOfFrame(f) == a.privateRegionOf(0);
    }
    EXPECT_TRUE(private_hit);
}

TEST(PageAllocator, SpreadsAcrossRegions)
{
    PageAllocator a = makeAlloc();
    std::set<unsigned> used;
    for (std::uint64_t v = 0; v < 200; ++v)
        used.insert(a.regionOfFrame(a.translate(0, v)));
    // Round-robin placement must reach most allowed regions.
    EXPECT_GE(used.size(), regions - programs);
}

TEST(PageAllocator, OwnerOfBlock)
{
    PageAllocator a = makeAlloc();
    std::uint64_t f = a.translate(2, 7);
    EXPECT_EQ(a.ownerOfBlock(2 * f), 2);
    EXPECT_EQ(a.ownerOfBlock(2 * f + 1), 2);
    // Some unallocated frame.
    for (std::uint64_t g = 0; g < a.numFrames(); ++g) {
        if (g != f) {
            EXPECT_EQ(a.ownerOfBlock(2 * g), invalidProgram);
            break;
        }
    }
}

TEST(PageAllocator, ReleaseReturnsFrames)
{
    PageAllocator a = makeAlloc();
    std::uint64_t before = a.freeFramesInRegion(10);
    for (std::uint64_t v = 0; v < 300; ++v)
        a.translate(3, v);
    EXPECT_LT(a.freeFramesInRegion(10), before + 1);
    a.releaseProgram(3);
    EXPECT_EQ(a.allocatedFrames(3), 0u);
    std::uint64_t total_free = 0;
    for (unsigned r = 0; r < regions; ++r)
        total_free += a.freeFramesInRegion(r);
    EXPECT_EQ(total_free, a.numFrames());
}

TEST(PageAllocator, DeterministicForSeed)
{
    PageAllocator a(groups, slots, regions, programs, 123);
    PageAllocator b(groups, slots, regions, programs, 123);
    for (std::uint64_t v = 0; v < 100; ++v)
        EXPECT_EQ(a.translate(1, v), b.translate(1, v));
}

TEST(PageAllocator, RejectsBadGeometry)
{
    // G/2 not a multiple of regions.
    EXPECT_EXIT(PageAllocator(100, 9, 32, 4),
                ::testing::ExitedWithCode(1), "multiple");
    // More programs than regions.
    EXPECT_EXIT(PageAllocator(1024, 9, 4, 8),
                ::testing::ExitedWithCode(1), "regions");
}

namespace
{

/** Rng::below as a plain rejection loop: compute the threshold
 *  2^32 mod bound first, then draw until r reaches it. */
std::uint32_t
referenceBelow(Rng &rng, std::uint32_t bound)
{
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
        std::uint32_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

/**
 * The allocator with an eager shuffle, kept as the reference the
 * lazy one must reproduce: each region's free list starts in
 * ascending frame order and is Fisher-Yates shuffled in full at
 * construction, regions in turn from one stream.  Released frames
 * are pushed on top of their region's list.
 */
class EagerAllocator
{
  public:
    EagerAllocator(std::uint64_t num_groups, unsigned slots_per_group,
                   unsigned num_regions, unsigned num_programs,
                   std::uint64_t seed)
        : numGroups_(num_groups), numRegions_(num_regions),
          numPrograms_(num_programs)
    {
        Rng rng(seed, 0xa02bdbf7bb3c0a7ull);
        std::uint64_t frames = num_groups * slots_per_group / 2;
        tables_.resize(num_programs);
        for (auto &t : tables_)
            t.reserve(frames / num_programs + 16);
        for (unsigned p = 0; p < num_programs; ++p)
            cursor_.push_back(referenceBelow(rng, num_regions));
        free_.resize(num_regions);
        for (std::uint64_t f = 0; f < frames; ++f)
            free_[regionOf(f)].push_back(f);
        for (auto &list : free_) {
            for (std::size_t i = list.size(); i > 1; --i) {
                std::size_t j = referenceBelow(
                    rng, static_cast<std::uint32_t>(i));
                std::swap(list[i - 1], list[j]);
            }
        }
    }

    std::uint64_t
    translate(ProgramId p, std::uint64_t vpage)
    {
        auto &table = tables_[static_cast<unsigned>(p)];
        auto it = table.find(vpage);
        if (it != table.end())
            return it->second;
        std::uint64_t frame = pick(p);
        table.emplace(vpage, frame);
        return frame;
    }

    void
    releaseProgram(ProgramId p)
    {
        auto &table = tables_[static_cast<unsigned>(p)];
        for (const auto &kv : table)
            free_[regionOf(kv.second)].push_back(kv.second);
        table.clear();
    }

    std::uint64_t
    freeFramesInRegion(unsigned r) const
    {
        return free_[r].size();
    }

  private:
    unsigned
    regionOf(std::uint64_t frame) const
    {
        return static_cast<unsigned>((frame % (numGroups_ / 2)) %
                                     numRegions_);
    }

    std::uint64_t
    pick(ProgramId p)
    {
        unsigned &cursor = cursor_[static_cast<unsigned>(p)];
        for (unsigned step = 0; step < numRegions_; ++step) {
            unsigned r = (cursor + step) % numRegions_;
            if (r < numPrograms_ && static_cast<ProgramId>(r) != p)
                continue;
            if (free_[r].empty())
                continue;
            cursor = (r + 1) % numRegions_;
            std::uint64_t frame = free_[r].back();
            free_[r].pop_back();
            return frame;
        }
        ADD_FAILURE() << "reference out of frames";
        return 0;
    }

    std::uint64_t numGroups_;
    unsigned numRegions_;
    unsigned numPrograms_;
    std::vector<unsigned> cursor_;
    std::vector<std::vector<std::uint64_t>> free_;
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        tables_;
};

/**
 * Drive the allocator and the eager reference with one random
 * stream of first touches, repeat touches and program releases;
 * every translation and every region's free count must agree.
 * With `drain`, program 0 then touches one page per frame, which
 * empties every region (single-program geometries only).
 */
void
checkAgainstEager(std::uint64_t num_groups, unsigned num_programs,
                  std::uint64_t seed, std::uint64_t pages, bool drain)
{
    SCOPED_TRACE(testing::Message() << "G=" << num_groups
                                    << " programs=" << num_programs
                                    << " seed=" << seed);
    PageAllocator lazy(num_groups, slots, regions, num_programs, seed);
    EagerAllocator eager(num_groups, slots, regions, num_programs,
                         seed);
    auto compare = [&](ProgramId p, std::uint64_t v) {
        ASSERT_EQ(lazy.translate(p, v), eager.translate(p, v))
            << "program " << p << " vpage " << v;
        for (unsigned r = 0; r < regions; ++r)
            ASSERT_EQ(lazy.freeFramesInRegion(r),
                      eager.freeFramesInRegion(r))
                << "region " << r;
    };
    Rng ops(seed, 99);
    for (int step = 0; step < 6000; ++step) {
        ProgramId p = static_cast<ProgramId>(ops.below(num_programs));
        if (ops.below(150) == 0) {
            lazy.releaseProgram(p);
            eager.releaseProgram(p);
            continue;
        }
        compare(p, ops.below64(pages));
        if (testing::Test::HasFatalFailure())
            return;
    }
    if (!drain)
        return;
    for (std::uint64_t v = 0; v < lazy.numFrames(); ++v) {
        compare(0, v);
        if (testing::Test::HasFatalFailure())
            return;
    }
    for (unsigned r = 0; r < regions; ++r)
        EXPECT_EQ(lazy.freeFramesInRegion(r), 0u);
}

} // anonymous namespace

TEST(RngBelow, MatchesReferenceRejectionLoop)
{
    // 2^31 + 1 and 2^32 - 1 reject almost half and almost none of
    // the draws below bound; 1, 2 and 3 have thresholds 0, 0, 1.
    for (std::uint32_t bound :
         {1u, 2u, 3u, (1u << 31) + 1u, 0xffffffffu}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            Rng fast(seed, 17);
            Rng ref(seed, 17);
            for (int i = 0; i < 20000; ++i)
                ASSERT_EQ(fast.below(bound), referenceBelow(ref, bound))
                    << "bound " << bound << " draw " << i;
            // Same number of raw draws: the streams continue alike.
            for (int i = 0; i < 4; ++i)
                EXPECT_EQ(fast.next(), ref.next()) << "bound " << bound;
        }
    }
}

TEST(PageAllocator, LazyShuffleMatchesEagerSingleCore)
{
    // The single-core system's geometry: G = 448, 2016 frames.
    for (std::uint64_t seed : {1u, 2u, 7u, 123u})
        checkAgainstEager(448, 1, seed, 1800, true);
}

TEST(PageAllocator, LazyShuffleMatchesEagerQuadCore)
{
    // The quad-core system's geometry: G = 1472, 6624 frames; each
    // program touches at most 1400 pages, so none runs out.
    for (std::uint64_t seed : {1u, 2u, 7u, 123u})
        checkAgainstEager(1472, 4, seed, 1400, false);
}

TEST(PageAllocator, ColdAndWarmStreamPrefixTranslateAlike)
{
    // The stream prefix is shared per (frames, regions, programs,
    // seed).  A seed no other test uses makes the first allocator
    // build it (cold) and the second reuse it (warm).
    constexpr std::uint64_t seed = 0x5eedc01d;
    PageAllocator cold(1472, slots, regions, programs, seed);
    PageAllocator warm(1472, slots, regions, programs, seed);
    Rng ops(seed, 99);
    for (int step = 0; step < 6000; ++step) {
        ProgramId p = static_cast<ProgramId>(ops.below(programs));
        std::uint64_t v = ops.below64(1400);
        ASSERT_EQ(cold.translate(p, v), warm.translate(p, v))
            << "step " << step;
    }
}
