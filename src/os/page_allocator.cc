#include "os/page_allocator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace os
{

PageAllocator::PageAllocator(std::uint64_t num_groups,
                             unsigned slots_per_group,
                             unsigned num_regions,
                             unsigned num_programs,
                             std::uint64_t seed)
    : numGroups_(num_groups), numRegions_(num_regions),
      numPrograms_(num_programs), rng_(seed, 0xa02bdbf7bb3c0a7ull)
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
    // Total bytes = G * slots * 2 KiB; frames are 4 KiB.
    numFrames_ = num_groups * slots_per_group / 2;

    owner_.assign(numFrames_, invalidProgram);
    pageTables_.resize(num_programs);
    lastXlate_.resize(num_programs);
    // A program can map at most the configured footprint (all
    // frames); pre-sizing the hash tables for an even share avoids
    // rehash-and-move cycles during first-touch warm-up.
    for (auto &t : pageTables_)
        t.reserve(numFrames_ / num_programs + 16);
    cursor_.resize(num_programs);
    for (unsigned p = 0; p < num_programs; ++p)
        cursor_[p] = rng_.below(num_regions);

    freeLists_.resize(num_regions);
    for (std::uint64_t f = 0; f < numFrames_; ++f)
        freeLists_[regionOfFrame(f)].push_back(f);
    // Randomize placement within each region so that physical frames
    // (and hence swap-group slots) are not allocated in a correlated
    // order across programs.
    for (auto &list : freeLists_) {
        for (std::size_t i = list.size(); i > 1; --i) {
            std::size_t j =
                rng_.below(static_cast<std::uint32_t>(i));
            std::swap(list[i - 1], list[j]);
        }
    }
}

unsigned
PageAllocator::regionOfFrame(std::uint64_t frame) const
{
    return static_cast<unsigned>((frame % (numGroups_ / 2)) %
                                 numRegions_);
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
        if (freeLists_[r].empty())
            continue;
        cursor_[static_cast<unsigned>(program)] =
            (r + 1) % numRegions_;
        std::uint64_t frame = freeLists_[r].back();
        freeLists_[r].pop_back();
        return frame;
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
    return freeLists_[region].size();
}

void
PageAllocator::releaseProgram(ProgramId p)
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= numPrograms_,
             "bad program id %d", p);
    auto &table = pageTables_[static_cast<unsigned>(p)];
    for (const auto &kv : table) {
        owner_[kv.second] = invalidProgram;
        freeLists_[regionOfFrame(kv.second)].push_back(kv.second);
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
