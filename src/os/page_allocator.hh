/**
 * @file
 * OS physical-page allocation with region awareness (Sec. 3.1.1).
 *
 * The OS allocates 4-KiB frames of the *original* physical address
 * space on first touch.  RSM requires that the OS keep per-region
 * free lists and dedicate one private region per program: frames of
 * a private region are handed out only to the owning program, while
 * shared-region frames go to anyone.  Swaps remain invisible to the
 * OS (they permute *actual* locations within a swap group, and the
 * region of a swap group never changes).
 *
 * Region geometry follows Fig. 3: a 4-KiB page covers two consecutive
 * swap groups, and consecutive group pairs map to regions
 * 0, 1, ..., R-1, 0, 1, ...  Hence frame f belongs to region
 * (f mod (G/2)) mod R, where G is the number of swap groups; since
 * R divides G/2 that is simply f mod R.
 *
 * Each region's frames are handed out in a Fisher-Yates order drawn
 * from the allocator's seed.  The shuffle is lazy: construction
 * only copies where each region's draws start in the shared
 * stream, and each first-time pick runs the one shuffle step that
 * finalizes the slot it pops.  Frames come out exactly as from an
 * eager shuffle.  The starting points are a pure function of
 * (frames, regions, programs, seed), so they are computed once per
 * process and shared (common/shared_tables.hh).
 */

#ifndef PROFESS_OS_PAGE_ALLOCATOR_HH
#define PROFESS_OS_PAGE_ALLOCATOR_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
} // namespace telemetry

namespace os
{

constexpr std::uint64_t pageBytes = 4 * KiB;

/** Answers "which program owns this original block?" queries. */
class BlockOwnerOracle
{
  public:
    virtual ~BlockOwnerOracle() = default;

    /**
     * @param original_block Original-space 2-KiB block index.
     * @return Owning program, or invalidProgram if unallocated.
     */
    virtual ProgramId
    ownerOfBlock(std::uint64_t original_block) const = 0;
};

/** First-touch page allocator with per-region free lists. */
class PageAllocator : public BlockOwnerOracle
{
  public:
    /**
     * @param num_groups Number of swap groups G (even, multiple of
     *        2 * num_regions for uniform regions).
     * @param slots_per_group Locations per swap group (9 for 1:8).
     * @param num_regions Number of interleaved regions R.
     * @param num_programs Programs; program i owns private region i.
     * @param seed Seed for randomized placement within regions.
     */
    PageAllocator(std::uint64_t num_groups, unsigned slots_per_group,
                  unsigned num_regions, unsigned num_programs,
                  std::uint64_t seed = 7);

    /** @return total number of 4-KiB frames. */
    std::uint64_t numFrames() const { return numFrames_; }

    /** @return number of regions. */
    unsigned numRegions() const { return numRegions_; }

    /** @return region of a frame. */
    unsigned regionOfFrame(std::uint64_t frame) const;

    /** @return region of a swap group (Fig. 3). */
    unsigned regionOfGroup(std::uint64_t group) const;

    /**
     * @return the program whose private region this is, or
     *         invalidProgram for shared regions.
     */
    ProgramId privateOwner(unsigned region) const;

    /** @return the private region of a program. */
    unsigned privateRegionOf(ProgramId p) const;

    /**
     * Translate a virtual page, allocating on first touch.
     *
     * @param program Accessing program.
     * @param vpage Virtual page number.
     * @return Frame number.
     */
    std::uint64_t translate(ProgramId program, std::uint64_t vpage);

    /** @return frames currently allocated to a program. */
    std::uint64_t allocatedFrames(ProgramId p) const;

    /** @return free frames remaining in a region. */
    std::uint64_t freeFramesInRegion(unsigned region) const;

    /** Release all frames of a program (program termination). */
    void releaseProgram(ProgramId p);

    /** Translation counters: "translations", "cache_hits". */
    const StatSet &stats() const { return stats_; }

    /** @return last-translation-cache hit rate in [0,1]
     *  (1 if no translations yet). */
    double
    cacheHitRate() const
    {
        return stats_[Translations] == 0
                   ? 1.0
                   : static_cast<double>(stats_[CacheHits]) /
                         static_cast<double>(stats_[Translations]);
    }

    /** Register translation counters and hit rate under `prefix`. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

    // BlockOwnerOracle
    ProgramId ownerOfBlock(std::uint64_t original_block) const override;

  private:
    /** Indices into stats_, parallel to statNames. */
    enum Stat : unsigned
    {
        Translations,
        CacheHits,
        NumStats
    };
    static constexpr const char *statNames[NumStats] = {"translations",
                                                        "cache_hits"};

    /** One-entry last-translation cache (demand streams are
     *  page-local, so most accesses re-translate the same page). */
    struct LastXlate
    {
        std::uint64_t vpage = ~std::uint64_t{0};
        std::uint64_t frame = 0;
        bool valid = false;
    };

    /**
     * A region's free frames live in its slice of frames_, as a
     * stack of `size` entries.  The bottom `unshuffled` entries are
     * the part of the region's Fisher-Yates shuffle not yet run;
     * the entries above them are frames released back to the
     * region, which pop first.
     */
    struct Region
    {
        std::size_t size = 0;
        std::size_t unshuffled = 0;
        /** The shared stream as it stood at this region's first
         *  shuffle draw. */
        Rng rng;
    };

    std::uint64_t pickFrame(ProgramId program);

    /** @return region r's slice of frames_. */
    std::uint64_t *slotsOf(unsigned r)
    {
        return frames_.data() + r * framesPerRegion_;
    }

    std::uint64_t numFrames_;
    std::uint64_t framesPerRegion_;
    unsigned numRegions_;
    unsigned numPrograms_;

    std::vector<Region> regions_;
    /** Free-frame stacks, one slice of framesPerRegion_ per region
     *  (a region never holds more free frames than it owns). */
    std::vector<std::uint64_t> frames_;
    /** Per-program round-robin cursor over regions. */
    std::vector<unsigned> cursor_;
    /** frame -> owner (invalidProgram if free). */
    std::vector<ProgramId> owner_;
    /** Per-program page table: vpage -> frame. */
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        pageTables_;
    /** Per-program last-translation cache. */
    std::vector<LastXlate> lastXlate_;

    StatSet stats_{statNames};
};

} // namespace os

} // namespace profess

#endif // PROFESS_OS_PAGE_ALLOCATOR_HH
