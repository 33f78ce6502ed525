/**
 * @file
 * Determinism contract of the simulation kernel's event queue.
 *
 * The contract (common/event.hh) is that the globally minimal
 * (when, seq) event always runs next, so same-tick events keep FIFO
 * scheduling order however near or far ahead they were scheduled.
 * These tests pin that contract directly (tie-breaking, events past
 * 16384 ticks -- the horizon of the calendar wheel these tests were
 * written for, kept in their names -- and long self-rescheduling
 * chains) and then differentially: the end-to-end golden metrics
 * must come out bit-identical through the serial (--jobs 1) and
 * threaded (--jobs 8) experiment paths.  The lockstep check against
 * a naive reference queue is in test_event_reference.cc.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/event.hh"
#include "sim/parallel_runner.hh"

using namespace profess;
using namespace profess::sim;

// ---------------------------------------------------------------
// Event-queue ordering.
// ---------------------------------------------------------------

TEST(CalendarQueue, SameTickFifoBySeq)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.schedule(100, [&order, i]() { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(CalendarQueue, TickOrderBeatsInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Insert out of tick order, including same-tick pairs.
    const Tick ticks[] = {50, 10, 50, 10, 30, 0};
    for (int i = 0; i < 6; ++i) {
        eq.schedule(ticks[i],
                    [&order, i]() { order.push_back(i); });
    }
    eq.run();
    // Sorted by (tick, insertion seq): t0:5, t10:1,3, t30:4, t50:0,2
    std::vector<int> expect{5, 1, 3, 4, 0, 2};
    EXPECT_EQ(order, expect);
}

TEST(CalendarQueue, OverflowTierMigration)
{
    EventQueue eq;
    std::vector<int> order;
    // Far beyond the old wheel's 16384-tick horizon.
    for (int i = 0; i < 8; ++i) {
        eq.schedule(1000000 + 10 * i,
                    [&order, i]() { order.push_back(i); });
    }
    EXPECT_EQ(eq.size(), 8u);
    // Near events scheduled later still run first.
    for (int i = 8; i < 12; ++i) {
        eq.schedule(static_cast<Tick>(i),
                    [&order, i]() { order.push_back(i); });
    }
    EXPECT_EQ(eq.size(), 12u);
    eq.run();
    // Near events first, then the far events in tick order.
    std::vector<int> expect{8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(CalendarQueue, OverflowSameTickKeepsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    // Same far tick: FIFO must hold however far ahead.
    for (int i = 0; i < 16; ++i) {
        eq.schedule(500000,
                    [&order, i]() { order.push_back(i); });
    }
    EXPECT_EQ(eq.size(), 16u);
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(CalendarQueue, WheelWrapAroundChain)
{
    // A self-rescheduling event travels many times the old wheel's
    // horizon; time must advance strictly monotonically.
    EventQueue eq;
    int fired = 0;
    Tick last = 0;
    std::function<void()> impl = [&]() {
        EXPECT_GE(eq.now(), last);
        last = eq.now();
        if (++fired < 200)
            eq.scheduleIn(1777, [&impl]() { impl(); });
    };
    eq.schedule(0, [&impl]() { impl(); });
    eq.run();
    EXPECT_EQ(fired, 200);
    EXPECT_EQ(eq.now(), 199u * 1777u);
}

TEST(CalendarQueue, MixedHorizonGlobalOrdering)
{
    // Pseudo-random delays straddling the old wheel's horizon
    // (16384 ticks); execution order must be globally
    // nondecreasing in time with now() == when.
    EventQueue eq;
    std::uint64_t lcg = 99;
    std::vector<Tick> fireTicks;
    for (int i = 0; i < 500; ++i) {
        lcg = lcg * 6364136223846793005ull +
              1442695040888963407ull;
        Tick when = (lcg >> 33) % 40000; // ~60% beyond 16384
        eq.schedule(when, [&eq, &fireTicks]() {
            fireTicks.push_back(eq.now());
        });
    }
    eq.run();
    ASSERT_EQ(fireTicks.size(), 500u);
    for (std::size_t i = 1; i < fireTicks.size(); ++i)
        EXPECT_LE(fireTicks[i - 1], fireTicks[i]);
}

TEST(CalendarQueue, RunUntilAdvancesToLimitWhenDrained)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&fired]() { ++fired; });
    EXPECT_EQ(eq.runUntil(5), 0u);
    EXPECT_EQ(eq.now(), 0u); // pending event: clock holds
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u); // drained: clock moves to the limit
}

// ---------------------------------------------------------------
// Differential golden run: serial vs threaded experiment paths.
//
// Seeds are pinned to 1 (the ExperimentRunner default), so the
// integer counters below are the same goldens pinned in
// test_golden_metrics.cc; any kernel-ordering change shows up as
// a counter drift here before it shows up in a figure.
// ---------------------------------------------------------------

namespace
{

std::vector<RunJob>
goldenBatch()
{
    SystemConfig cfg = SystemConfig::singleCore();
    cfg.core.instrQuota = 150000;
    cfg.core.warmupInstr = 50000;
    std::vector<RunJob> batch;
    for (const char *policy : {"pom", "mdm", "profess"}) {
        RunJob j = singleJob(cfg, policy, "mcf");
        j.seed = 1; // pin to the ExperimentRunner default
        batch.push_back(j);
    }
    return batch;
}

} // anonymous namespace

TEST(KernelDeterminism, GoldenMetricsSerialAndThreaded)
{
    std::vector<RunJob> batch = goldenBatch();

    ParallelRunner serial(1);
    serial.setProgress(false);
    std::vector<MultiMetrics> r1 = serial.run(batch);

    ParallelRunner threaded(8);
    threaded.setProgress(false);
    std::vector<MultiMetrics> r8 = threaded.run(batch);

    ASSERT_EQ(r1.size(), 3u);
    ASSERT_EQ(r8.size(), 3u);

    // Serial results must equal the pinned goldens ...
    EXPECT_EQ(r1[0].run.servedTotal, 9085u);
    EXPECT_EQ(r1[0].run.swaps, 323u);
    EXPECT_NEAR(r1[0].run.ipc[0], 0.061480317103094567, 1e-12);
    EXPECT_NEAR(r1[0].run.m1Fraction, 0.29730324711062189, 1e-12);
    EXPECT_EQ(r1[1].run.servedTotal, 9085u);
    EXPECT_EQ(r1[1].run.swaps, 29u);
    EXPECT_NEAR(r1[1].run.ipc[0], 0.079062858010098852, 1e-12);
    EXPECT_EQ(r1[2].run.swaps, 29u);
    EXPECT_NEAR(r1[2].run.ipc[0], 0.079062858010098852, 1e-12);

    // ... and the threaded run must be bit-identical to serial.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(r1[i].run.servedTotal, r8[i].run.servedTotal);
        EXPECT_EQ(r1[i].run.swaps, r8[i].run.swaps);
        ASSERT_EQ(r1[i].run.ipc.size(), r8[i].run.ipc.size());
        EXPECT_EQ(r1[i].run.ipc[0], r8[i].run.ipc[0]);
        EXPECT_EQ(r1[i].run.m1Fraction, r8[i].run.m1Fraction);
        EXPECT_EQ(r1[i].run.stcHitRate, r8[i].run.stcHitRate);
        EXPECT_EQ(r1[i].run.meanReadLatencyNs,
                  r8[i].run.meanReadLatencyNs);
        EXPECT_EQ(r1[i].run.joules, r8[i].run.joules);
    }
}
