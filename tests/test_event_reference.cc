/**
 * @file
 * Lockstep check of EventQueue against a deliberately naive
 * reference queue.
 *
 * RefQueue keeps its pending events in a std::map keyed by
 * (when, seq) and std::function callbacks: the ordering contract of
 * common/event.hh stated with the plainest container available.
 *
 * Both queues run the same seeded random stream, each through its
 * own Feeder.  An event's callback logs (now, id) and schedules
 * children whose count and delays derive only from the event's id,
 * so the two event trees are identical as long as the extraction
 * order is.  Ids are assigned in scheduling order, which makes each
 * id the event's seq.  Between steps the feeder also schedules
 * roots from outside the queue and calls runUntil at random limits.
 * After every step both sides must agree on the extraction log,
 * now(), nextTick(), size(), empty() and executed().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/event.hh"
#include "common/rng.hh"

using namespace profess;

namespace
{

/** The naive model.  Mirrors EventQueue's public behaviour. */
class RefQueue
{
  public:
    Tick now() const { return now_; }

    void
    schedule(Tick when, std::function<void()> cb)
    {
        ASSERT_GE(when, now_);
        pending_.emplace(std::make_pair(when, seq_++), std::move(cb));
    }

    bool
    runOne()
    {
        if (pending_.empty())
            return false;
        auto it = pending_.begin();
        std::function<void()> cb = std::move(it->second);
        now_ = it->first.first;
        pending_.erase(it);
        ++executed_;
        cb();
        return true;
    }

    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (!pending_.empty() &&
               pending_.begin()->first.first <= limit) {
            runOne();
            ++n;
        }
        if (now_ < limit && pending_.empty())
            now_ = limit;
        return n;
    }

    Tick
    nextTick() const
    {
        return pending_.empty() ? tickNever
                                : pending_.begin()->first.first;
    }

    std::size_t size() const { return pending_.size(); }
    bool empty() const { return pending_.empty(); }
    std::uint64_t executed() const { return executed_; }

  private:
    std::map<std::pair<Tick, std::uint64_t>, std::function<void()>>
        pending_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

/** Delay mix and size of one random stream. */
struct StreamShape
{
    std::uint64_t seed;
    unsigned steps;        ///< steps after the roots
    unsigned roots;        ///< events scheduled before the first step
    unsigned budget;       ///< total events scheduled, roots included
    unsigned maxChildren;  ///< children per event: 0..maxChildren
    // Delay classes, in percent; the rest are memory-timing delays
    // of 1..400 ticks.
    unsigned pctSameTick;  ///< delay 0
    unsigned pctFar;       ///< past the old wheel's 16384-tick horizon
    unsigned pctHuge;      ///< past 2^32 ticks
    unsigned pctRunUntil;  ///< share of steps that call runUntil
};

/** What a stream exercised, summed over seeds. */
struct Coverage
{
    std::uint64_t executed = 0;
    /** Pops at the same tick as the pop before. */
    std::uint64_t sameTickPops = 0;
    /** Delay-0 schedules made from inside a callback. */
    std::uint64_t nestedSameTick = 0;
    std::uint64_t farDelays = 0;
    std::uint64_t hugeDelays = 0;
    /** runUntil calls that stopped with an event still pending. */
    std::uint64_t untilBetween = 0;
    std::size_t maxPending = 0;
};

/** One extraction: the tick it ran at and its seq. */
using Log = std::vector<std::pair<Tick, std::uint64_t>>;

/**
 * Runs one stream on one queue.  Every random draw comes from an
 * Rng seeded by the stream seed and, for callbacks, the event's id,
 * so two feeders draw the same numbers as long as their queues pop
 * events in the same order.
 */
template <typename Queue>
class Feeder
{
  public:
    Feeder(Queue &q, const StreamShape &s) : q_(q), s_(s) {}

    /** Schedule one event `delay` ticks from now. */
    void
    scheduleIn(Cycles delay)
    {
        std::uint64_t id = nextId_++;
        q_.schedule(q_.now() + delay, [this, id]() { fire(id); });
    }

    /** Draw a delay from the stream's mix. */
    Cycles
    delay(Rng &rng, bool nested)
    {
        unsigned p = rng.below(100);
        if (p < s_.pctSameTick) {
            cov.nestedSameTick += nested ? 1 : 0;
            return 0;
        }
        p -= s_.pctSameTick;
        if (p < s_.pctFar) {
            ++cov.farDelays;
            return 16384 + rng.below64(200000);
        }
        p -= s_.pctFar;
        if (p < s_.pctHuge) {
            ++cov.hugeDelays;
            return (Cycles(1) << 32) + rng.below64(Cycles(1) << 34);
        }
        return 1 + rng.below(400);
    }

    bool budgetLeft() const { return nextId_ < s_.budget; }

    Log log;
    Coverage cov;

  private:
    void
    fire(std::uint64_t id)
    {
        if (!log.empty() && log.back().first == q_.now())
            ++cov.sameTickPops;
        log.emplace_back(q_.now(), id);
        Rng rng(s_.seed ^ mix64(id), 0xe7e47ull);
        unsigned children = rng.below(s_.maxChildren + 1);
        for (unsigned c = 0; c < children && budgetLeft(); ++c)
            scheduleIn(delay(rng, true));
    }

    Queue &q_;
    const StreamShape &s_;
    std::uint64_t nextId_ = 0;
};

/** Both queues agree on every observable. */
void
expectSame(const EventQueue &dut, const RefQueue &ref,
           const Log &dutLog, const Log &refLog, std::size_t &checked)
{
    ASSERT_EQ(dutLog.size(), refLog.size());
    for (; checked < dutLog.size(); ++checked)
        ASSERT_EQ(dutLog[checked], refLog[checked])
            << "pop " << checked;
    ASSERT_EQ(dut.now(), ref.now());
    ASSERT_EQ(dut.nextTick(), ref.nextTick());
    ASSERT_EQ(dut.size(), ref.size());
    ASSERT_EQ(dut.empty(), ref.empty());
    ASSERT_EQ(dut.executed(), ref.executed());
}

/** Run one stream on both queues in lockstep. */
void
checkStream(const StreamShape &s, Coverage &cov)
{
    EventQueue dut;
    RefQueue ref;
    Feeder<EventQueue> d(dut, s);
    Feeder<RefQueue> r(ref, s);
    std::size_t checked = 0;

    Rng ctl(s.seed, 0xc0ffeeull);
    for (unsigned i = 0; i < s.roots; ++i) {
        Cycles delay = d.delay(ctl, false);
        d.scheduleIn(delay);
        r.scheduleIn(delay);
    }
    cov.maxPending = std::max(cov.maxPending, dut.size());
    dut.auditInvariants();
    ASSERT_NO_FATAL_FAILURE(expectSame(dut, ref, d.log, r.log, checked));

    for (unsigned step = 0; step < s.steps; ++step) {
        unsigned action = ctl.below(100);
        if (action < s.pctRunUntil) {
            // A limit that usually falls between two pending events.
            Tick limit = dut.now() + ctl.below(600);
            std::uint64_t n = dut.runUntil(limit);
            ASSERT_EQ(n, ref.runUntil(limit));
            if (!dut.empty() && dut.nextTick() > limit)
                ++cov.untilBetween;
        } else if (action < s.pctRunUntil + 10 && d.budgetLeft()) {
            // A burst of roots from outside the queue, all at one
            // tick.
            Cycles delay = d.delay(ctl, false);
            unsigned burst = 1 + ctl.below(6);
            for (unsigned b = 0; b < burst && d.budgetLeft(); ++b) {
                d.scheduleIn(delay);
                r.scheduleIn(delay);
            }
        } else {
            ASSERT_EQ(dut.runOne(), ref.runOne());
        }
        cov.maxPending = std::max(cov.maxPending, dut.size());
        // The audit sorts the slab; thin it out on huge queues.
        if (step % (dut.size() > 1000 ? 1024 : 16) == 0)
            dut.auditInvariants();
        ASSERT_NO_FATAL_FAILURE(
            expectSame(dut, ref, d.log, r.log, checked));
    }

    ASSERT_EQ(dut.run(), [&ref]() {
        std::uint64_t n = 0;
        while (ref.runOne())
            ++n;
        return n;
    }());
    ASSERT_NO_FATAL_FAILURE(expectSame(dut, ref, d.log, r.log, checked));
    ASSERT_TRUE(dut.empty());
    cov.executed += dut.executed();
    cov.sameTickPops += d.cov.sameTickPops;
    cov.nestedSameTick += d.cov.nestedSameTick;
    cov.farDelays += d.cov.farDelays;
    cov.hugeDelays += d.cov.hugeDelays;
}

} // anonymous namespace

TEST(EventReference, MemoryTimingDelays)
{
    // The simulator's own mix: a handful of events tens to hundreds
    // of ticks ahead, a few far periodic ones.
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        checkStream({seed, 4000, 8, 4000, 2, 5, 3, 0, 10}, cov);
    }
    EXPECT_GT(cov.executed, 10000u);
    EXPECT_GT(cov.farDelays, 100u);
}

TEST(EventReference, SameTickBursts)
{
    // Most delays are zero: callbacks schedule at the current tick
    // and roots arrive in same-tick bursts.
    Coverage cov;
    for (std::uint64_t seed = 11; seed <= 16; ++seed) {
        SCOPED_TRACE(seed);
        checkStream({seed, 3000, 16, 3000, 2, 60, 0, 0, 10}, cov);
    }
    EXPECT_GT(cov.sameTickPops, 3000u);
    EXPECT_GT(cov.nestedSameTick, 1000u);
}

TEST(EventReference, DelaysPastOldHorizonAndTwoToThe32)
{
    Coverage cov;
    for (std::uint64_t seed = 21; seed <= 26; ++seed) {
        SCOPED_TRACE(seed);
        checkStream({seed, 3000, 32, 3000, 2, 10, 30, 15, 10}, cov);
    }
    EXPECT_GT(cov.farDelays, 1000u);
    EXPECT_GT(cov.hugeDelays, 500u);
}

TEST(EventReference, RunUntilBetweenEvents)
{
    Coverage cov;
    for (std::uint64_t seed = 31; seed <= 36; ++seed) {
        SCOPED_TRACE(seed);
        checkStream({seed, 3000, 16, 3000, 2, 10, 5, 0, 60}, cov);
    }
    EXPECT_GT(cov.untilBetween, 1000u);
}

TEST(EventReference, TenThousandPending)
{
    // Far above the largest population the simulator reaches (16):
    // every insert walks a long array.
    Coverage cov;
    checkStream({41, 20000, 10000, 14000, 2, 10, 20, 5, 5}, cov);
    EXPECT_GE(cov.maxPending, 10000u);
    EXPECT_EQ(cov.executed, 14000u);
}
