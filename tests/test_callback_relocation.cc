/**
 * @file
 * Relocation bounds of callbacks on the simulation hot path.
 *
 * A relocation is one move of a callback's target from one buffer into
 * another (the moved-from source is then destroyed).  The tests pass a
 * callable that counts its own moves, destructions and calls:
 *
 *  - EventQueue::schedule forwards the callable and constructs it in
 *    place in a stable slab slot, and runOne invokes and destroys it
 *    there.  Nothing relocates it in between, however much the
 *    queue's sorted key array shifts around it.
 *  - HybridController::access moves a completion callback at most
 *    twice before the channel invokes it (into the pending access,
 *    then into the channel request), on an STC hit and on a miss.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/event.hh"
#include "common/inline_function.hh"
#include "hybrid/hybrid_controller.hh"
#include "policy/static_policies.hh"

using namespace profess;
using namespace profess::hybrid;

namespace
{

struct Counts
{
    int moves = 0;
    int destroys = 0;
    int calls = 0;
};

/** A callable that reports its moves, destructions and calls. */
class Counting
{
  public:
    explicit Counting(Counts *c) : c_(c) {}
    Counting(Counting &&o) noexcept : c_(o.c_) { ++c_->moves; }
    Counting(const Counting &) = delete;
    Counting &operator=(const Counting &) = delete;
    Counting &operator=(Counting &&) = delete;
    ~Counting() { ++c_->destroys; }

    void operator()() { ++c_->calls; }

  private:
    Counts *c_;
};

static_assert(InlineCallback::storedInline<Counting>(),
              "the counting callable must take the inline path");

/** Events around the counted one that make the queue reorganise:
 *  same-tick and near neighbours whose inserts and pops shift its
 *  key, array growth past the reserved capacity, and far events
 *  (past the old calendar wheel's horizon). */
void
scheduleTraffic(EventQueue &eq, Tick base)
{
    for (Tick i = 0; i < 96; ++i)
        eq.schedule(base + i % 5, []() {});
    for (Tick i = 0; i < 32; ++i)
        eq.schedule(base + 40000 + 7 * i, []() {});
}

struct RelocationFixture : public ::testing::Test
{
    EventQueue eq;
    HybridLayout layout = HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    std::unique_ptr<mem::MemorySystem> memory;
    std::unique_ptr<os::PageAllocator> alloc;
    policy::NeverPolicy policy;
    std::unique_ptr<HybridController> ctrl;

    void
    SetUp() override
    {
        mem::MemorySystemConfig mc;
        mc.numChannels = 2;
        mc.m1BytesPerChannel = 1 * MiB;
        mc.m2BytesPerChannel = 8 * MiB;
        memory = std::make_unique<mem::MemorySystem>(eq, mc);
        alloc = std::make_unique<os::PageAllocator>(
            layout.numGroups, layout.slotsPerGroup, layout.numRegions,
            4, 7);
        HybridController::Params hp;
        hp.stc = StCache::Params{512, 8, 8};
        hp.numPrograms = 4;
        hp.statsFoldInterval = 0;
        ctrl = std::make_unique<HybridController>(eq, *memory, layout,
                                                  hp, policy, *alloc);
    }

    /** Moves of one read's callback inside access() and the
     *  channel, counted from the built InlineCallback on. */
    Counts
    readThroughController(Addr addr)
    {
        Counts c;
        InlineCallback done{Counting(&c)};
        int built = c.moves;
        ctrl->access(0, addr, false, std::move(done));
        eq.run();
        c.moves -= built;
        c.destroys -= built;
        return c;
    }
};

} // anonymous namespace

TEST(CallbackRelocation, EventQueueConstructsInPlace)
{
    EventQueue eq;
    Counts c;
    scheduleTraffic(eq, 100);
    eq.schedule(102, Counting(&c));
    // The temporary moved once, into its slot, and died.
    EXPECT_EQ(c.moves, 1);
    EXPECT_EQ(c.destroys, 1);
    scheduleTraffic(eq, 60);
    eq.run();
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.moves, 1) << "relocated inside the queue";
    EXPECT_EQ(c.destroys, 2);
}

TEST(CallbackRelocation, OverflowEventIsNeverRelocated)
{
    // Far ahead (past the old calendar wheel's horizon), with many
    // keys inserted around it; the callback stays put.
    EventQueue eq;
    Counts c;
    scheduleTraffic(eq, 0);
    eq.schedule(1000000, Counting(&c));
    for (Tick t = 1; t < 40; ++t)
        eq.schedule(1000000 - 100 * t, []() {});
    eq.run();
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.moves, 1);
    EXPECT_EQ(c.destroys, 2);
}

TEST(CallbackRelocation, ScheduledCallbackMovesOnce)
{
    // A ready-made Callback rvalue moves into its slot, then stays.
    EventQueue eq;
    Counts c;
    EventQueue::Callback cb{Counting(&c)};
    int built = c.moves;
    scheduleTraffic(eq, 10);
    eq.scheduleIn(12, std::move(cb));
    scheduleTraffic(eq, 5);
    eq.run();
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.moves - built, 1);
    EXPECT_EQ(c.destroys, c.moves + 1);
}

TEST_F(RelocationFixture, StcMissReadMovesAtMostTwice)
{
    Addr a = alloc->translate(0, 0) * os::pageBytes;
    Counts c = readThroughController(a);
    ASSERT_EQ(ctrl->stats().counter("st_fills"), 1u) << "not a miss";
    EXPECT_EQ(c.calls, 1);
    EXPECT_LE(c.moves, 2);
    // Every move's source died, then the target itself.
    EXPECT_EQ(c.destroys, c.moves + 1);
}

TEST_F(RelocationFixture, StcHitReadMovesAtMostTwice)
{
    Addr a = alloc->translate(0, 0) * os::pageBytes;
    readThroughController(a);
    Counts c = readThroughController(a + 64);
    ASSERT_EQ(ctrl->stats().counter("st_fills"), 1u) << "not a hit";
    ASSERT_DOUBLE_EQ(ctrl->stcHitRate(), 0.5);
    EXPECT_EQ(c.calls, 1);
    EXPECT_LE(c.moves, 2);
    EXPECT_EQ(c.destroys, c.moves + 1);
}
