#include "os/page_allocator.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"
#include "common/shared_tables.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace os
{

namespace
{

/**
 * Where the allocator's one stream stands at each of its uses: the
 * programs' starting region cursors, then each region's first
 * shuffle draw.  Region r's Fisher-Yates shuffle takes the draws
 * below(n), below(n - 1), ..., below(2) for its n frames, so region
 * r + 1 starts that many draws later.  A pure function of its key.
 */
struct StreamPrefix
{
    std::vector<unsigned> cursor;
    std::vector<Rng> regionRng;
};

StreamPrefix
buildStreamPrefix(std::uint64_t num_frames, unsigned num_regions,
                  unsigned num_programs, std::uint64_t seed)
{
    StreamPrefix prefix;
    Rng rng(seed, 0xa02bdbf7bb3c0a7ull);
    for (unsigned p = 0; p < num_programs; ++p)
        prefix.cursor.push_back(rng.below(num_regions));
    std::uint64_t per_region = num_frames / num_regions;
    for (unsigned r = 0; r < num_regions; ++r) {
        prefix.regionRng.push_back(rng);
        if (r + 1 == num_regions)
            break; // nothing reads the stream past the last region
        for (std::uint64_t i = per_region; i > 1; --i)
            rng.below(static_cast<std::uint32_t>(i));
    }
    return prefix;
}

/** @return the shared stream prefix for one geometry and seed. */
const StreamPrefix &
streamPrefix(std::uint64_t num_frames, unsigned num_regions,
             unsigned num_programs, std::uint64_t seed)
{
    using Key = std::tuple<std::uint64_t, unsigned, unsigned,
                           std::uint64_t>;
    return SharedTables<Key, StreamPrefix>::get(
        {num_frames, num_regions, num_programs, seed}, [&] {
            return buildStreamPrefix(num_frames, num_regions,
                                     num_programs, seed);
        });
}

} // anonymous namespace

PageAllocator::PageAllocator(std::uint64_t num_groups,
                             unsigned slots_per_group,
                             unsigned num_regions,
                             unsigned num_programs,
                             std::uint64_t seed)
    : numRegions_(num_regions), numPrograms_(num_programs)
{
    fatal_if(num_groups == 0 || num_groups % 2 != 0,
             "number of swap groups must be even");
    fatal_if((num_groups / 2) % num_regions != 0,
             "G/2 (%llu) must be a multiple of the region count (%u) "
             "for uniform regions",
             static_cast<unsigned long long>(num_groups / 2),
             num_regions);
    fatal_if(num_programs >= num_regions,
             "need more regions (%u) than programs (%u)", num_regions,
             num_programs);
    fatal_if(slots_per_group % 2 == 0,
             "slots per group must be odd (1 M1 + even M2)");
    // Total bytes = G * slots * 2 KiB; frames are 4 KiB.  Since R
    // divides G/2, every region owns the same number of frames.
    numFrames_ = num_groups * slots_per_group / 2;
    framesPerRegion_ = numFrames_ / num_regions;

    owner_.assign(numFrames_, invalidProgram);
    pageTables_.resize(num_programs);
    lastXlate_.resize(num_programs);
    // A program can map at most the configured footprint (all
    // frames); pre-sizing the hash tables for an even share avoids
    // rehash-and-move cycles during first-touch warm-up.
    for (auto &t : pageTables_)
        t.reserve(numFrames_ / num_programs + 16);
    const StreamPrefix &prefix =
        streamPrefix(numFrames_, num_regions, num_programs, seed);
    cursor_ = prefix.cursor;

    // Randomize placement within each region so that physical frames
    // (and hence swap-group slots) are not allocated in a correlated
    // order across programs.  Region r starts as r, r + R, r + 2R,
    // ... and is shuffled by Fisher-Yates from its point of the
    // shared stream, one step per frame it hands out.
    regions_.resize(num_regions);
    frames_.resize(numFrames_);
    for (unsigned r = 0; r < num_regions; ++r) {
        std::uint64_t *slots = slotsOf(r);
        for (std::uint64_t k = 0; k < framesPerRegion_; ++k)
            slots[k] = r + k * num_regions;
        Region &region = regions_[r];
        region.size = framesPerRegion_;
        region.unshuffled = framesPerRegion_;
        region.rng = prefix.regionRng[r];
    }
}

unsigned
PageAllocator::regionOfFrame(std::uint64_t frame) const
{
    return static_cast<unsigned>(frame % numRegions_);
}

unsigned
PageAllocator::regionOfGroup(std::uint64_t group) const
{
    return static_cast<unsigned>((group / 2) % numRegions_);
}

ProgramId
PageAllocator::privateOwner(unsigned region) const
{
    return region < numPrograms_ ? static_cast<ProgramId>(region)
                                 : invalidProgram;
}

unsigned
PageAllocator::privateRegionOf(ProgramId p) const
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= numPrograms_,
             "bad program id %d", p);
    return static_cast<unsigned>(p);
}

std::uint64_t
PageAllocator::pickFrame(ProgramId program)
{
    unsigned start = cursor_[static_cast<unsigned>(program)];
    for (unsigned step = 0; step < numRegions_; ++step) {
        unsigned r = (start + step) % numRegions_;
        ProgramId priv = privateOwner(r);
        if (priv != invalidProgram && priv != program)
            continue; // someone else's private region
        Region &region = regions_[r];
        if (region.size == 0)
            continue;
        cursor_[static_cast<unsigned>(program)] =
            (r + 1) % numRegions_;
        std::uint64_t *slots = slotsOf(r);
        if (region.size == region.unshuffled) {
            // No released frame on top: run the shuffle step that
            // finalizes the top slot.
            std::size_t i = region.unshuffled--;
            if (i > 1)
                std::swap(slots[i - 1],
                          slots[region.rng.below(
                              static_cast<std::uint32_t>(i))]);
        }
        return slots[--region.size];
    }
    fatal("out of physical memory allocating for program %d",
          program);
}

std::uint64_t
PageAllocator::translate(ProgramId program, std::uint64_t vpage)
{
    panic_if(program < 0 ||
                 static_cast<unsigned>(program) >= numPrograms_,
             "bad program id %d", program);
    ++stats_[Translations];
    LastXlate &last = lastXlate_[static_cast<unsigned>(program)];
    if (last.valid && last.vpage == vpage) {
        ++stats_[CacheHits];
        return last.frame;
    }
    auto &table = pageTables_[static_cast<unsigned>(program)];
    std::uint64_t frame;
    auto it = table.find(vpage);
    if (it != table.end()) {
        frame = it->second;
    } else {
        frame = pickFrame(program);
        owner_[frame] = program;
        table.emplace(vpage, frame);
    }
    last.vpage = vpage;
    last.frame = frame;
    last.valid = true;
    return frame;
}

std::uint64_t
PageAllocator::allocatedFrames(ProgramId p) const
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= numPrograms_,
             "bad program id %d", p);
    return pageTables_[static_cast<unsigned>(p)].size();
}

std::uint64_t
PageAllocator::freeFramesInRegion(unsigned region) const
{
    panic_if(region >= numRegions_, "bad region %u", region);
    return regions_[region].size;
}

void
PageAllocator::releaseProgram(ProgramId p)
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= numPrograms_,
             "bad program id %d", p);
    auto &table = pageTables_[static_cast<unsigned>(p)];
    for (const auto &kv : table) {
        owner_[kv.second] = invalidProgram;
        unsigned r = regionOfFrame(kv.second);
        slotsOf(r)[regions_[r].size++] = kv.second;
    }
    table.clear();
    lastXlate_[static_cast<unsigned>(p)] = LastXlate{};
}

ProgramId
PageAllocator::ownerOfBlock(std::uint64_t original_block) const
{
    std::uint64_t frame = original_block / 2;
    panic_if(frame >= numFrames_, "block %llu out of range",
             static_cast<unsigned long long>(original_block));
    return owner_[frame];
}

void
PageAllocator::registerTelemetry(telemetry::StatRegistry &registry,
                                 const std::string &prefix) const
{
    registry.addSet(prefix, stats_);
    registry.addProbe(prefix + ".cache_hit_rate",
                      [this]() { return cacheHitRate(); });
}

} // namespace os

} // namespace profess
