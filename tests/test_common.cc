/**
 * @file
 * Unit tests for src/common: RNG, statistics, config and checked
 * parsing, event queue.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/event.hh"
#include "common/fifo.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace profess;

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(8, 4), 2u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(9), 3u);
    EXPECT_EQ(ceilLog2(9), 4u);
    EXPECT_EQ(ceilLog2(8), 3u);
}

TEST(Fifo, MatchesDequeAcrossGrowthAndWrap)
{
    // Random pushes and pops keep the ring wrapping, and it grows
    // while wrapped; order and emptiness must follow a std::deque.
    Fifo<std::uint64_t> fifo;
    std::deque<std::uint64_t> ref;
    Rng rng(3, 4);
    std::uint64_t next = 0;
    for (int i = 0; i < 20000; ++i) {
        if (ref.empty() || rng.below(5) < 3) {
            fifo.push(next);
            ref.push_back(next++);
        } else {
            ASSERT_EQ(fifo.pop(), ref.front());
            ref.pop_front();
        }
        ASSERT_EQ(fifo.empty(), ref.empty());
    }
    fifo.clear();
    EXPECT_TRUE(fifo.empty());
    fifo.push(7);
    EXPECT_EQ(fifo.pop(), 7u);
}

TEST(Rng, Deterministic)
{
    Rng a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsIndependent)
{
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowBounds)
{
    Rng r(1);
    for (std::uint32_t bound : {1u, 2u, 3u, 7u, 1000u}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, Below64Bounds)
{
    Rng r(2);
    std::uint64_t bound = 1ull << 40;
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(r.below64(bound), bound);
}

TEST(Rng, UniformRange)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng r(4);
    double p = 0.25;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(p));
    // Mean of failures-before-success is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RunningStat, MeanAndStddev)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(ExpSmoother, FirstSamplePrimes)
{
    ExpSmoother e(0.125);
    EXPECT_FALSE(e.primed());
    EXPECT_DOUBLE_EQ(e.add(10.0), 10.0);
    EXPECT_TRUE(e.primed());
    // 10 + 0.125 * (18 - 10) = 11
    EXPECT_DOUBLE_EQ(e.add(18.0), 11.0);
}

TEST(ExpSmoother, ConvergesToConstant)
{
    ExpSmoother e(0.125);
    for (int i = 0; i < 200; ++i)
        e.add(42.0);
    EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(Histogram, BucketsAndQuantiles)
{
    Histogram h(10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.summary().count(), 100u);
    EXPECT_EQ(h.bucket(0), 10u);
    EXPECT_NEAR(h.quantile(0.5), 60.0, 10.0);
    // Overflow bucket.
    h.add(1e9);
    EXPECT_EQ(h.bucket(h.numBuckets() - 1), 1u);
}

TEST(BoxSummary, KnownSeries)
{
    BoxSummary s = boxSummary({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 5);
    EXPECT_DOUBLE_EQ(s.median, 3);
    EXPECT_DOUBLE_EQ(s.q1, 2);
    EXPECT_DOUBLE_EQ(s.q3, 4);
    EXPECT_NEAR(s.gmean, std::pow(120.0, 0.2), 1e-9);
}

TEST(BoxSummary, Empty)
{
    BoxSummary s = boxSummary({});
    EXPECT_EQ(s.n, 0u);
}

TEST(GeometricMeanFn, Basic)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_EQ(geometricMean({}), 0.0);
}

TEST(Config, TypedAccess)
{
    Config c;
    EXPECT_TRUE(c.parsePair("threads=4"));
    EXPECT_TRUE(c.parsePair("name=test"));
    EXPECT_FALSE(c.parsePair("no-equals"));
    EXPECT_FALSE(c.parsePair("=bad"));
    EXPECT_EQ(c.getUint("threads", 0), 4u);
    EXPECT_EQ(c.getString("name"), "test");
    EXPECT_EQ(c.getUint("missing", 7), 7u);
    EXPECT_EQ(c.getString("missing", "d"), "d");
    EXPECT_EQ(c.entries().size(), 2u);
}

TEST(ConfigDeathTest, RejectsMalformedArgs)
{
    Config c;
    EXPECT_TRUE(c.parsePair("n=4x"));
    EXPECT_DEATH(c.getUint("n", 0), "n: '4x' is not an integer");
    char prog[] = "prog", good[] = "a=1", bad[] = "typo";
    char *argv[] = {prog, good, bad, nullptr};
    EXPECT_DEATH(c.parseArgs(3, argv), "expected key=value, got 'typo'");
}

TEST(CheckedParse, IntegersInRange)
{
    EXPECT_EQ(parseInt<std::uint64_t>("42", "k"), 42u);
    EXPECT_EQ(parseInt<std::uint64_t>("0x10", "k"), 16u);
    EXPECT_EQ(parseInt<std::uint64_t>("18446744073709551615", "k"),
              UINT64_MAX);
    EXPECT_EQ(parseInt<unsigned>("4294967295", "k"), UINT32_MAX);
    EXPECT_EQ(parseInt<int>("-1", "k"), -1);
    EXPECT_EQ(parseInt<unsigned>("1", "k", 1u), 1u);
    EXPECT_DOUBLE_EQ(parseDouble("0.5", "k"), 0.5);
    EXPECT_DOUBLE_EQ(parseDouble("1e3", "k"), 1000.0);
    EXPECT_EQ(doubleBits(1.0), 0x3ff0000000000000ull);
}

TEST(CheckedParse, BoolSpellings)
{
    for (const char *t : {"true", "1", "yes", "on"})
        EXPECT_TRUE(parseBool(t, "k")) << t;
    for (const char *f : {"false", "0", "no", "off"})
        EXPECT_FALSE(parseBool(f, "k")) << f;
}

TEST(CheckedParseDeathTest, RejectsWhatTheTypeCannotHold)
{
    EXPECT_DEATH(parseInt<std::uint64_t>("abc", "k"), "not an integer");
    EXPECT_DEATH(parseInt<std::uint64_t>("", "k"), "not an integer");
    EXPECT_DEATH(parseInt<std::uint64_t>("12x", "k"), "not an integer");
    EXPECT_DEATH(parseInt<std::uint64_t>(" 1", "k"), "not an integer");
    EXPECT_DEATH(parseInt<std::uint64_t>("-1", "k"), "not an integer");
    EXPECT_DEATH(parseInt<std::uint64_t>("18446744073709551616", "k"),
                 "not an integer");
    EXPECT_DEATH(parseInt<unsigned>("4294967297", "k"),
                 "not an integer");
    EXPECT_DEATH(parseInt<int>("1.9", "channel"),
                 "channel: '1.9' is not an integer");
    EXPECT_DEATH(parseInt<unsigned>("0", "--jobs", 1u),
                 "--jobs: '0' is not an integer in \\[1, ");
    EXPECT_DEATH(parseDouble("1e400", "k"), "not a finite number");
    EXPECT_DEATH(parseDouble("nan", "k"), "not a finite number");
    EXPECT_DEATH(parseDouble("0.5s", "k"), "not a finite number");
    EXPECT_DEATH(parseBool("maybe", "k"), "not a boolean");
}

TEST(CheckedParse, ScanChecksWithoutFatal)
{
    // The checks behind parseInt/parseDouble, as the sweep journal
    // and metrics shard readers use them.
    std::uint64_t u = 0;
    for (const char *bad :
         {"-1", "18446744073709551616", " 5", "5x", "", "0x10"})
        EXPECT_FALSE(scanUnsigned(bad, u, 10)) << bad;
    EXPECT_TRUE(scanUnsigned("18446744073709551615", u, 10));
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_TRUE(scanUnsigned("5", u, 10));
    EXPECT_EQ(u, 5u);
    EXPECT_TRUE(scanUnsigned("0x10", u));
    EXPECT_EQ(u, 16u);

    double d = 0;
    for (const char *bad : {" 5", "5x", "", "1e400"})
        EXPECT_FALSE(scanDouble(bad, d)) << bad;
    EXPECT_TRUE(scanDouble("-1", d));
    EXPECT_EQ(d, -1.0);
    EXPECT_TRUE(scanDouble("18446744073709551616", d));
    EXPECT_EQ(d, 18446744073709551616.0);
    // Subnormals round-trip; strtod flags them ERANGE.
    EXPECT_TRUE(scanDouble("5e-324", d));
    EXPECT_EQ(d, std::numeric_limits<double>::denorm_min());
}

TEST(CheckedParse, EnvIntReadsAndChecks)
{
    ::unsetenv("PROFESS_TEST_ENVINT");
    EXPECT_EQ(envInt<unsigned>("PROFESS_TEST_ENVINT", 3), 3u);
    ::setenv("PROFESS_TEST_ENVINT", "", 1);
    EXPECT_EQ(envInt<unsigned>("PROFESS_TEST_ENVINT", 3), 3u);
    ::setenv("PROFESS_TEST_ENVINT", "9", 1);
    EXPECT_EQ(envInt<unsigned>("PROFESS_TEST_ENVINT", 3), 9u);
    ::setenv("PROFESS_TEST_ENVINT", "abc", 1);
    EXPECT_DEATH(envInt<unsigned>("PROFESS_TEST_ENVINT", 3),
                 "PROFESS_TEST_ENVINT: 'abc' is not an integer");
    ::unsetenv("PROFESS_TEST_ENVINT");
}

TEST(KeyValueFile, TokenizesLinesAndComments)
{
    std::string path = ::testing::TempDir() + "profess_kv_ok.txt";
    {
        std::ofstream f(path);
        f << "# header\n\n  a=1 b=x  # trailing\n\tc=2\n";
    }
    std::vector<std::string> seen;
    readKeyValueFile(path, "test file",
                     [&](const std::string &where,
                         const std::vector<KeyValue> &kvs) {
                         for (const KeyValue &kv : kvs)
                             seen.push_back(where + " " + kv.key + "=" +
                                            kv.value);
                     });
    std::vector<std::string> want = {path + ":3 a=1", path + ":3 b=x",
                                     path + ":4 c=2"};
    EXPECT_EQ(seen, want);
}

TEST(KeyValueFileDeathTest, RejectsMalformedTokens)
{
    std::string path = ::testing::TempDir() + "profess_kv_bad.txt";
    {
        std::ofstream f(path);
        f << "a=1\nb= c=3\n";
    }
    auto noop = [](const std::string &, const std::vector<KeyValue> &) {};
    EXPECT_DEATH(readKeyValueFile(path, "test file", noop),
                 "profess_kv_bad.txt:2: expected key=value, got 'b='");
    EXPECT_DEATH(readKeyValueFile(path + ".missing", "test file", noop),
                 "cannot open test file");
}

TEST(EventQueue, OrderedExecution)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.scheduleIn(5, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunUntil)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.nextTick(), 20u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StopPredicate)
{
    EventQueue eq;
    int fired = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&]() { ++fired; });
    eq.run([&]() { return fired == 3; });
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.size(), 7u);
}

TEST(EventQueue, EmptyBehaviour)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), tickNever);
    EXPECT_FALSE(eq.runOne());
}
