/**
 * @file
 * Byte-for-byte check of TextWriter and the artifact writers built
 * on it against printf.
 *
 * TextWriter promises that num(double) prints what "%.17g" prints,
 * fixed(v, p) what "%.<p>f" prints and num(integer) what "%d"/"%u"/
 * "%llu" print.  The first tests run the writer and snprintf side by
 * side on edge values and random bit patterns.
 *
 * The record tests keep a deliberately naive reference for each
 * artifact writer: one fprintf call per field, with jsonQuote/
 * escapeLabelValue building temporary strings.  Each writer and its
 * reference get the same input and must produce the same bytes.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/config.hh"
#include "common/openmetrics.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "common/text_writer.hh"
#include "common/trace_sink.hh"

using namespace profess;
using namespace profess::telemetry;

namespace
{

/** @return everything `fn` writes to a temporary FILE. */
std::string
capture(const std::function<void(std::FILE *)> &fn)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    fn(f);
    std::fflush(f);
    long n = std::ftell(f);
    std::string s(static_cast<std::size_t>(n), '\0');
    std::rewind(f);
    EXPECT_EQ(std::fread(s.data(), 1, s.size(), f), s.size());
    std::fclose(f);
    return s;
}

/** printf into a std::string. */
std::string
sprint(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
sprint(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    EXPECT_GE(n, 0);
    EXPECT_LT(static_cast<std::size_t>(n), sizeof(buf));
    return buf;
}

double
fromBits(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
random64(Rng &rng)
{
    return (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
}

/** Hand-picked doubles where printf and to_chars could part ways. */
std::vector<double>
edgeDoubles()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> v = {
        0.0, -0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX,
        -DBL_MAX, inf, -inf, nan, -nan, 0.1, 0.2, 0.3, 1.0 / 3.0,
        2.0 / 3.0, 1.0, -1.0, 0.5, 1.5, 2.5, 9007199254740992.0,
        9007199254740993.0, 9007199254740994.0, 9007199254740991.0,
        -9007199254740991.0, 1e15, 1e16, 1e17, 1e18, 1e21, 1e22,
        1e23, 1e-5, 1e-4, 1e-7, 123456789012345678.0,
        0.30000000000000004, 4.9406564584124654e-324,
        2.2250738585072009e-308, 1.7976931348623157e308,
        99999999999999999.0, 9999999999999998.0, 0.99999999999999989,
        12345.678, -0.000123, 3.0e-310, 65535.0, 4294967296.0};
    // Around every power of ten: the %g switch between fixed and
    // exponent notation, and rounding to 17 digits carrying over.
    for (int e = -320; e <= 308; ++e) {
        double p = std::pow(10.0, e);
        v.push_back(p);
        v.push_back(std::nextafter(p, 0.0));
        v.push_back(std::nextafter(p, inf));
    }
    for (int e = -1074; e <= 1023; ++e)
        v.push_back(std::ldexp(1.0, e));
    return v;
}

/** Write each value with TextWriter and with snprintf, one a line;
 *  expect identical text. */
void
expectSameDoubles(const std::vector<double> &values,
                  std::size_t capacity)
{
    std::string want;
    for (double d : values)
        want += sprint("%.17g\n", d);
    std::string got = capture([&](std::FILE *f) {
        TextWriter w(f, capacity);
        for (double d : values)
            w.num(d).put('\n');
    });
    if (got == want)
        return;
    // Report the first value that differs.
    std::size_t i = 0;
    std::size_t a = 0;
    std::size_t b = 0;
    for (; i < values.size(); ++i) {
        std::size_t ea = want.find('\n', a);
        std::size_t eb = got.find('\n', b);
        std::string wa = want.substr(a, ea - a);
        std::string gb = eb == std::string::npos
                             ? got.substr(b)
                             : got.substr(b, eb - b);
        if (wa != gb) {
            ADD_FAILURE() << "value " << i << " (bits 0x" << std::hex
                          << doubleBits(values[i]) << std::dec
                          << "): printf '" << wa << "', writer '"
                          << gb << "'";
            return;
        }
        a = ea + 1;
        b = eb + 1;
    }
    ADD_FAILURE() << "outputs differ in length";
}

} // anonymous namespace

//
// Numbers
//

TEST(TextWriter, DoublesMatchPrintfOnEdgeValues)
{
    expectSameDoubles(edgeDoubles(), TextWriter::defaultCapacity);
}

TEST(TextWriter, DoublesMatchPrintfOnRandomBitPatterns)
{
    Rng rng(0x7e57c0de);
    std::vector<double> values;
    for (int i = 0; i < 100000; ++i)
        values.push_back(fromBits(random64(rng)));
    expectSameDoubles(values, TextWriter::defaultCapacity);
}

TEST(TextWriter, DoublesMatchPrintfOnIntegralValues)
{
    // The writer prints integral doubles below 2^53 through its
    // integer path; cover that path and its border.
    Rng rng(42);
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) {
        auto m = static_cast<std::int64_t>(random64(rng) >> (11 + i % 53));
        values.push_back(static_cast<double>(i % 2 ? -m : m));
    }
    // Above 2^53 only even integers exist; the cast rounds.
    for (std::int64_t k = -4; k <= 8; ++k) {
        double d = static_cast<double>((std::int64_t{1} << 53) + k);
        values.push_back(d);
        values.push_back(-d);
    }
    values.push_back(std::nextafter(0x1p53, 0.0));
    values.push_back(std::nextafter(0x1p53, 1e300));
    expectSameDoubles(values, TextWriter::defaultCapacity);
}

/** `values` followed by their negations. */
std::vector<double>
withNegatives(std::vector<double> values)
{
    const std::size_t n = values.size();
    for (std::size_t i = 0; i < n; ++i)
        values.push_back(-values[i]);
    return values;
}

/** `p` and its `steps` nearest doubles on either side. */
void
pushNeighbours(std::vector<double> &v, double p, int steps)
{
    v.push_back(p);
    double below = p;
    double above = p;
    for (int i = 0; i < steps; ++i) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, HUGE_VAL);
        v.push_back(below);
        v.push_back(above);
    }
}

// The writer rounds 1e-16 <= |v| < 1e17 to 17 digits in exact
// 128-bit integer arithmetic and falls back to to_chars outside it;
// the next tests aim at the edges of that path.

TEST(TextWriter, ExactPathRangeEdgesMatchPrintf)
{
    // The double nearest 1e-16 lies below 10^-16, so it needs 5^33
    // and takes the fallback; its upper neighbour is the first value
    // inside.  1e17 is the first value outside at the top.
    std::vector<double> v;
    pushNeighbours(v, 1e-16, 2);
    pushNeighbours(v, 1e17, 2);
    expectSameDoubles(withNegatives(v), TextWriter::defaultCapacity);
}

TEST(TextWriter, ExactPathNotationSwitchMatchesPrintf)
{
    // %g prints fixed notation for decimal exponents -4..16 and
    // exponent notation outside; 1e-14 rounds up to 10^-14 at 17
    // digits (a carry into a new decade), and 99999999999999984 is
    // the largest double below 1e17.
    std::vector<double> v = {1e-14, 99999999999999984.0, 0.5, 0.1};
    for (double p : {1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17})
        pushNeighbours(v, p, 3);
    for (double p : {1e-5, 1e-4, 1e16, 1e17}) {
        v.push_back(p * (1 + 1e-9));
        v.push_back(p * (1 - 1e-9));
        v.push_back(p * 0.99999999999999994);
    }
    expectSameDoubles(withNegatives(v), TextWriter::defaultCapacity);
}

TEST(TextWriter, ExactPathRoundsTiesToEven)
{
    // Each value's exact decimal expansion ends in a 5 in its 18th
    // significant digit; the 17th digit is even in the first of each
    // pair (kept) and odd in the second (rounded up).
    std::vector<double> v = {
        1234567890123456.25,     // ...456.2
        1234567890123456.75,     // ...456.8
        123456789012345.125,     // ...345.12
        123456789012345.375,     // ...345.38
        1.0 + 0x1p-17,           // 1.0000076293945312
        1.0 + 3 * 0x1p-17,       // 1.0000228881835938
        1e15 + 0.25,             // 1000000000000000.2
        1e15 + 0.75};            // 1000000000000000.8
    expectSameDoubles(withNegatives(v), TextWriter::defaultCapacity);
    std::string got = capture([&](std::FILE *f) {
        TextWriter w(f);
        w.num(v[0]).put(' ').num(v[1]).put(' ').num(-v[3]);
    });
    EXPECT_EQ(got, "1234567890123456.2 1234567890123456.8 "
                   "-123456789012345.38");
}

TEST(TextWriter, ExactPathAround2Pow53MatchesPrintf)
{
    // 2^53 is where the integer path ends: from there up every
    // double is an even integer printed by the exact path.
    std::vector<double> v;
    for (std::int64_t k = -6; k <= 12; ++k)
        v.push_back(std::ldexp(1.0, 53) + static_cast<double>(k));
    pushNeighbours(v, 0x1p53, 4);
    pushNeighbours(v, 0x1p54, 4);
    pushNeighbours(v, 0x1p56, 4);
    expectSameDoubles(withNegatives(v), TextWriter::defaultCapacity);
}

TEST(TextWriter, ExactPathMatchesPrintfOnSeededValues)
{
    // A million doubles inside [1e-16, 1e17): uniform over binary
    // exponents and significand bits, with a random number of low
    // significand bits cleared so short dyadic fractions (and with
    // them exact decimal ties) are common.
    Rng rng(0x17d1617);
    std::vector<double> values;
    values.reserve(1000000);
    while (values.size() < 1000000) {
        const std::uint64_t r = random64(rng);
        std::uint64_t mant = r & ((std::uint64_t{1} << 52) - 1);
        mant &= ~((std::uint64_t{1} << (rng.next() % 53)) - 1);
        const int exp2 = -54 + static_cast<int>(rng.next() % 111);
        double d = std::ldexp(
            1.0 + std::ldexp(static_cast<double>(mant), -52), exp2);
        if (!(d >= 1e-16 && d < 1e17))
            continue;
        values.push_back((r >> 63) != 0 ? -d : d);
    }
    expectSameDoubles(values, TextWriter::defaultCapacity);
}

TEST(TextWriter, RepeatedDoublesMatchPrintf)
{
    // The writer remembers the text of recent non-integral values
    // (256 hash slots); repeat a pool larger than that in a random
    // order so values hit, miss and evict each other.
    Rng rng(0x5eed);
    std::vector<double> pool;
    for (int i = 0; i < 600; ++i) {
        const double d = i % 3 == 0
                             ? fromBits(random64(rng))
                             : std::ldexp(1.0 + i / 977.0, i % 40 - 20);
        pool.push_back(d);
    }
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i)
        values.push_back(pool[rng.next() % (i % 2 ? pool.size() : 8)]);
    expectSameDoubles(values, TextWriter::defaultCapacity);
}

TEST(TextWriter, SmallBufferFlushesAtEveryBoundary)
{
    // A 64-byte buffer flushes every couple of values, so numbers
    // and strings land on every possible buffer offset.
    expectSameDoubles(edgeDoubles(), 64);

    std::string longText(1000, 'x');
    longText[500] = 'y';
    std::string got = capture([&](std::FILE *f) {
        TextWriter w(f, 64);
        for (int i = 0; i < 100; ++i)
            w.put("ab").num(i).put(',');
        w.put(longText).put('|').put(std::string(64, 'z'));
        w.put(std::string(63, 'q')).put('!');
    });
    std::string want;
    for (int i = 0; i < 100; ++i)
        want += sprint("ab%d,", i);
    want += longText + "|" + std::string(64, 'z') +
            std::string(63, 'q') + "!";
    EXPECT_EQ(got, want);
}

TEST(TextWriter, FixedMatchesPrintf)
{
    std::vector<double> values = edgeDoubles();
    values.push_back(0.5);
    values.push_back(1.5);
    values.push_back(2.5);
    values.push_back(0.0005);
    values.push_back(0.0015);
    values.push_back(1234567.8915);
    for (int precision : {0, 3}) {
        std::string want;
        for (double d : values)
            want += sprint("%.*f\n", precision, d);
        std::string got = capture([&](std::FILE *f) {
            TextWriter w(f, 64);
            for (double d : values)
                w.fixed(d, precision).put('\n');
        });
        EXPECT_EQ(got, want) << "precision " << precision;
    }
}

TEST(TextWriter, IntegersMatchPrintf)
{
    const std::uint64_t u64s[] = {0,
                                  1,
                                  9,
                                  10,
                                  99,
                                  100,
                                  4294967295ull,
                                  4294967296ull,
                                  9999999999999999999ull,
                                  10000000000000000000ull,
                                  UINT64_MAX};
    const std::int64_t i64s[] = {0, -1, 1, INT32_MIN, INT32_MAX,
                                 INT64_MIN, INT64_MAX};
    const std::int32_t i32s[] = {0, -1, INT32_MIN, INT32_MAX};
    const std::uint8_t u8s[] = {0, 1, 7, 255};

    std::string want;
    for (std::uint64_t v : u64s)
        want += sprint("%" PRIu64 " ", v);
    for (std::int64_t v : i64s)
        want += sprint("%" PRId64 " ", v);
    for (std::int32_t v : i32s)
        want += sprint("%d ", v);
    for (std::uint8_t v : u8s)
        want += sprint("%u ", v);
    want += sprint("%ld %zu", -123456789L, static_cast<std::size_t>(77));

    std::string got = capture([&](std::FILE *f) {
        TextWriter w(f);
        for (std::uint64_t v : u64s)
            w.num(v).put(' ');
        for (std::int64_t v : i64s)
            w.num(v).put(' ');
        for (std::int32_t v : i32s)
            w.num(v).put(' ');
        for (std::uint8_t v : u8s)
            w.num(v).put(' ');
        w.num(-123456789L).put(' ').num(static_cast<std::size_t>(77));
    });
    EXPECT_EQ(got, want);
}

TEST(TextWriter, EscapesMatchTheStringHelpers)
{
    std::string all;
    for (int c = 1; c < 128; ++c)
        all.push_back(static_cast<char>(c));
    all += "\xc3\xa9 tail";
    const std::string cases[] = {"", "plain", "a\\b", "say \"hi\"",
                                 "two\nlines", "tab\there\r", all};
    for (const std::string &s : cases) {
        std::string got = capture([&](std::FILE *f) {
            TextWriter w(f, 64);
            w.quoted(s).put('|').quoted(s);
        });
        EXPECT_EQ(got, jsonQuote(s) + "|" + jsonQuote(s));
    }
    // OpenMetrics label values escape only backslash, quote and
    // newline.
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\\b \"q\"\nz\t"),
              "a\\\\b \\\"q\\\"\\nz\t");
    // Control characters use the lower-case \u00xx form.
    EXPECT_EQ(jsonQuote(std::string("\x01\x1f", 2)),
              "\"\\u0001\\u001f\"");
}

//
// Whole records against the fprintf reference
//

namespace
{

/** Naive decision-trace reference: the retained window is
 *  recomputed from the full push history. */
void
refDecisionJsonl(std::FILE *f, const std::vector<TraceRecord> &pushed,
                 std::size_t capacity)
{
    std::size_t first =
        pushed.size() > capacity ? pushed.size() - capacity : 0;
    for (std::size_t i = first; i < pushed.size(); ++i) {
        const TraceRecord &r = pushed[i];
        std::fprintf(
            f,
            "{\"tick\":%" PRIu64 ",\"kind\":\"%s\",\"group\":%" PRIu64
            ",\"accessor\":%d,\"m1_owner\":%d,\"q_i\":%u,"
            "\"a\":%.17g,\"b\":%.17g,\"margin\":%.17g,"
            "\"detail\":%u,\"swapped\":%u}\n",
            static_cast<std::uint64_t>(r.tick),
            traceKindName(static_cast<TraceKind>(r.kind)), r.group,
            r.accessor, r.m1Owner, r.qI, r.a, r.b, r.margin, r.detail,
            r.swapped);
    }
    const auto numKinds = static_cast<std::size_t>(TraceKind::NumKinds);
    std::vector<std::uint64_t> kinds(numKinds, 0);
    std::uint64_t paths[8] = {};
    std::uint64_t swaps[8] = {};
    for (const TraceRecord &r : pushed) {
        ++kinds[r.kind];
        if (r.kind == static_cast<std::uint8_t>(TraceKind::MdmDecide)) {
            ++paths[r.detail];
            swaps[r.detail] += r.swapped ? 1 : 0;
        }
    }
    std::uint64_t total = pushed.size();
    std::uint64_t retained = total - first;
    std::fprintf(f,
                 "{\"summary\":{\"total\":%" PRIu64
                 ",\"retained\":%" PRIu64 ",\"dropped\":%" PRIu64,
                 total, retained, total - retained);
    for (std::size_t k = 0; k < numKinds; ++k) {
        std::fprintf(f, ",\"%s\":%" PRIu64,
                     traceKindName(static_cast<TraceKind>(k)),
                     kinds[k]);
    }
    std::fputs(",\"paths\":[", f);
    for (std::size_t p = 0; p < 8; ++p)
        std::fprintf(f, "%s%" PRIu64, p ? "," : "", paths[p]);
    std::fputs("],\"path_swaps\":[", f);
    for (std::size_t p = 0; p < 8; ++p)
        std::fprintf(f, "%s%" PRIu64, p ? "," : "", swaps[p]);
    std::fputs("]}}\n", f);
}

std::vector<TraceRecord>
randomRecords(Rng &rng, std::size_t n)
{
    std::vector<TraceRecord> out;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.tick = random64(rng);
        r.kind = static_cast<std::uint8_t>(rng.below(
            static_cast<std::uint32_t>(TraceKind::NumKinds)));
        r.group = random64(rng) >> rng.below(64);
        r.accessor = static_cast<std::int32_t>(rng.next());
        r.m1Owner = static_cast<std::int32_t>(rng.below(5)) - 1;
        r.qI = static_cast<std::uint8_t>(rng.below(256));
        // Mix plain magnitudes, integers and arbitrary bit patterns.
        r.a = rng.uniform() * 64.0;
        r.b = static_cast<double>(rng.below(12)) * 0.5;
        r.margin = i % 3 == 0 ? fromBits(random64(rng))
                              : r.a - r.b - 4.0;
        r.detail = rng.below(8);
        r.swapped = static_cast<std::uint8_t>(rng.below(2));
        out.push_back(r);
    }
    return out;
}

} // anonymous namespace

TEST(TelemetryWriterRecords, DecisionTraceMatchesReference)
{
    // One record, a partly filled ring and a wrapped one.
    Rng rng(7);
    for (std::size_t n : {std::size_t{1}, std::size_t{5},
                          std::size_t{37}}) {
        const std::size_t capacity = 16;
        std::vector<TraceRecord> pushed = randomRecords(rng, n);
        DecisionTraceSink sink(capacity);
        for (const TraceRecord &r : pushed)
            sink.push(r);
        std::string got =
            capture([&](std::FILE *f) { sink.flushJsonl(f); });
        std::string want = capture([&](std::FILE *f) {
            refDecisionJsonl(f, pushed, capacity);
        });
        EXPECT_EQ(got, want) << n << " records";
    }
}

TEST(TelemetryWriterRecords, ChromeTraceMatchesReference)
{
    ChromeTraceSink sink;
    sink.complete("controller.fill", "hybrid", 100, 25, 3);
    sink.instant("rsm.period", "policy", 18446744073709551615ull, 0);
    sink.complete("swap", "mem", 0, 0, 4294967295u);
    TimerSlot slot;
    slot.ns = 123456789;
    slot.calls = 1000003;
    slot.sampled = 15625;
    TimerSlot empty;

    std::string got = capture([&](std::FILE *f) {
        sink.writeJson(f, {{"controller.access", &slot},
                           {"odd \"name\"", &empty}});
    });
    std::string want = capture([&](std::FILE *f) {
        std::fputs("{\"displayTimeUnit\":\"ms\",\"otherData\":"
                   "{\"ts_unit\":\"sim_ticks\"},\n\"traceEvents\":[\n",
                   f);
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":"
                     "\"X\",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                     ",\"pid\":1,\"tid\":%u},\n",
                     "controller.fill", "hybrid", std::uint64_t{100},
                     std::uint64_t{25}, 3u);
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":"
                     "\"i\",\"s\":\"t\",\"ts\":%" PRIu64
                     ",\"pid\":1,\"tid\":%u},\n",
                     "rsm.period", "policy",
                     std::uint64_t{18446744073709551615ull}, 0u);
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":"
                     "\"X\",\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                     ",\"pid\":1,\"tid\":%u}",
                     "swap", "mem", std::uint64_t{0}, std::uint64_t{0},
                     4294967295u);
        const std::pair<const char *, const TimerSlot *> timers[] = {
            {"controller.access", &slot}, {"odd \"name\"", &empty}};
        for (const auto &t : timers) {
            std::fprintf(f,
                         ",\n{\"name\":%s,\"cat\":\"host\",\"ph\":"
                         "\"C\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":"
                         "{\"ns\":%" PRIu64 ",\"calls\":%" PRIu64
                         ",\"sampled\":%" PRIu64 ",\"est_ns\":%.0f}}",
                         jsonQuote(t.first).c_str(), t.second->ns,
                         t.second->calls, t.second->sampled,
                         t.second->estimatedNs());
        }
        std::fprintf(f, "\n],\n\"dropped\":%" PRIu64 "}\n",
                     std::uint64_t{0});
    });
    EXPECT_EQ(got, want);
}

TEST(TelemetryWriterRecords, EpochLineMatchesReference)
{
    StatRegistry reg;
    std::uint64_t reads = 18446744073709551615ull;
    reg.addCounter("core0.mem_reads", reads);
    reg.addProbe("fairness.p0.slowdown", []() { return 1.0 / 3.0; });
    reg.addProbe("hybrid.p1.margin", []() { return -0.0; });
    reg.addProbe("tiny", []() { return 5e-324; });
    EpochSampler sampler(reg, 100);
    sampler.select(reg.names());

    std::string got = capture([&](std::FILE *f) {
        sampler.setOutput(f);
        sampler.sampleNow(25000);
        reads = 12;
        sampler.sampleNow(50000);
        sampler.setOutput(nullptr);
    });
    std::string want = capture([&](std::FILE *f) {
        const double values[2][4] = {
            {static_cast<double>(18446744073709551615ull), 1.0 / 3.0,
             -0.0, 5e-324},
            {12.0, 1.0 / 3.0, -0.0, 5e-324}};
        const std::vector<std::string> &names = sampler.selection();
        ASSERT_EQ(names.size(), 4u);
        for (std::uint64_t e = 0; e < 2; ++e) {
            std::fprintf(f,
                         "{\"tick\":%" PRIu64 ",\"epoch\":%" PRIu64
                         ",\"v\":{",
                         (e + 1) * 25000, e);
            // selection() is name-sorted: core0, fairness, hybrid, tiny.
            for (std::size_t i = 0; i < names.size(); ++i) {
                std::fprintf(f, "%s%s:%.17g", i ? "," : "",
                             jsonQuote(names[i]).c_str(),
                             values[e][i]);
            }
            std::fputs("}}\n", f);
        }
    });
    EXPECT_EQ(got, want);
}

namespace
{

/** Two runs with label values that need escaping: scalars of both
 *  kinds, a plain histogram and a latency-family one. */
std::vector<MetricsSnapshot>
escapingSnapshots()
{
    std::vector<MetricsSnapshot> runs(2);
    runs[0].run = "w09 \"quoted\" back\\slash\nnewline";
    runs[1].run = "plain_run";
    for (MetricsSnapshot &s : runs) {
        s.scalars.push_back({"hybrid.swaps", true, 1490.0});
        s.scalars.push_back({"mem.ch1.row_hit_rate", false, 0.1});
        s.scalars.push_back({"fairness.p2.slowdown", false, -0.0});
        MetricsSnapshot::Hist h;
        h.name = "hybrid.swap_retry_latency";
        h.bucketWidth = 0.1;
        h.buckets = {1, 0, 7, 2};
        h.underflow = 3;
        h.count = 13;
        h.sum = 1.0 / 7.0;
        s.histograms.push_back(h);
        h.name = "latency.p3.m2.read.queue";
        h.bucketWidth = 64.0;
        h.buckets = {5, 18446744073709551615ull - 40, 0};
        h.underflow = 0;
        h.sum = 1e300;
        s.histograms.push_back(h);
    }
    return runs;
}

void
refLabels(std::FILE *f,
          const std::vector<std::pair<std::string, std::string>>
              &labels,
          const std::string &run, const char *le = nullptr)
{
    std::fputc('{', f);
    bool first = true;
    for (const auto &kv : labels) {
        std::fprintf(f, "%s%s=\"%s\"", first ? "" : ",",
                     kv.first.c_str(),
                     escapeLabelValue(kv.second).c_str());
        first = false;
    }
    std::fprintf(f, "%srun=\"%s\"", first ? "" : ",",
                 escapeLabelValue(run).c_str());
    if (le != nullptr)
        std::fprintf(f, ",le=\"%s\"", le);
    std::fputc('}', f);
}

/** Naive exposition: every sample is a (family, run, dotted) keyed
 *  line, printed family by family in key order. */
void
refOpenMetrics(std::FILE *f, const std::vector<MetricsSnapshot> &runs)
{
    struct Sample
    {
        const MetricsSnapshot::Scalar *scalar = nullptr;
        const MetricsSnapshot::Hist *hist = nullptr;
        std::string run;
    };
    std::map<std::string, std::string> types;
    std::map<std::string, std::map<std::pair<std::string, std::string>,
                                    Sample>>
        families;
    for (const MetricsSnapshot &snap : runs) {
        for (const auto &s : snap.scalars) {
            std::string fam = mapDottedName(s.name).family;
            types[fam] = s.isCounter ? "counter" : "gauge";
            families[fam][{snap.run, s.name}] = {&s, nullptr, snap.run};
        }
        for (const auto &h : snap.histograms) {
            std::string fam = mapDottedName(h.name, true).family;
            types[fam] = "histogram";
            families[fam][{snap.run, h.name}] = {nullptr, &h, snap.run};
        }
    }
    for (const auto &[name, samples] : families) {
        std::fprintf(f, "# TYPE %s %s\n", name.c_str(),
                     types[name].c_str());
        for (const auto &[key, smp] : samples) {
            if (smp.scalar != nullptr) {
                std::fprintf(f, "%s%s", name.c_str(),
                             smp.scalar->isCounter ? "_total" : "");
                refLabels(f, mapDottedName(smp.scalar->name).labels,
                          smp.run);
                std::fprintf(f, " %.17g\n", smp.scalar->value);
                continue;
            }
            const MetricsSnapshot::Hist &h = *smp.hist;
            auto labels = mapDottedName(h.name, true).labels;
            std::uint64_t cum = h.underflow;
            for (std::size_t i = 0; i + 1 < h.buckets.size(); ++i) {
                cum += h.buckets[i];
                char le[32];
                std::snprintf(le, sizeof(le), "%.17g",
                              h.bucketWidth *
                                  static_cast<double>(i + 1));
                std::fprintf(f, "%s_bucket", name.c_str());
                refLabels(f, labels, smp.run, le);
                std::fprintf(f, " %llu\n",
                             static_cast<unsigned long long>(cum));
            }
            std::fprintf(f, "%s_bucket", name.c_str());
            refLabels(f, labels, smp.run, "+Inf");
            std::fprintf(f, " %llu\n",
                         static_cast<unsigned long long>(h.count));
            std::fprintf(f, "%s_count", name.c_str());
            refLabels(f, labels, smp.run);
            std::fprintf(f, " %llu\n",
                         static_cast<unsigned long long>(h.count));
            std::fprintf(f, "%s_sum", name.c_str());
            refLabels(f, labels, smp.run);
            std::fprintf(f, " %.17g\n", h.sum);
        }
    }
    std::fputs("# EOF\n", f);
}

} // anonymous namespace

TEST(TelemetryWriterRecords, OpenMetricsMatchesReference)
{
    std::vector<MetricsSnapshot> runs = escapingSnapshots();
    std::string got =
        capture([&](std::FILE *f) { writeOpenMetrics(f, runs); });
    std::string want =
        capture([&](std::FILE *f) { refOpenMetrics(f, runs); });
    EXPECT_EQ(got, want);
    // The escaped label value appears once per sample of run 0.
    EXPECT_NE(got.find("run=\"w09 \\\"quoted\\\" back\\\\slash\\nnewline\""),
              std::string::npos);
}

TEST(TelemetryWriterRecords, ShardLinesMatchReference)
{
    MetricsSnapshot snap = escapingSnapshots()[1];
    snap.run = "run with spaces";
    const std::string path = ::testing::TempDir() + "profess_writer_" +
                             std::to_string(::getpid()) + ".shard";
    writeMetricsShardFile(path, snap);
    std::string got = capture([&](std::FILE *out) {
        std::FILE *in = std::fopen(path.c_str(), "r");
        ASSERT_NE(in, nullptr);
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            std::fwrite(buf, 1, n, out);
        std::fclose(in);
    });
    std::remove(path.c_str());
    std::string want = capture([&](std::FILE *f) {
        std::fprintf(f, "profess-shard 1\n");
        std::fprintf(f, "run %s\n", snap.run.c_str());
        for (const auto &s : snap.scalars) {
            std::fprintf(f, "scalar %s %c %.17g\n", s.name.c_str(),
                         s.isCounter ? 'c' : 'g', s.value);
        }
        for (const auto &h : snap.histograms) {
            std::fprintf(f, "hist %s %.17g %llu %llu %.17g %zu",
                         h.name.c_str(), h.bucketWidth,
                         static_cast<unsigned long long>(h.underflow),
                         static_cast<unsigned long long>(h.count),
                         h.sum, h.buckets.size());
            for (std::uint64_t b : h.buckets) {
                std::fprintf(f, " %llu",
                             static_cast<unsigned long long>(b));
            }
            std::fputc('\n', f);
        }
        std::fprintf(f, "end\n");
    });
    EXPECT_EQ(got, want);
}

TEST(TelemetryWriterRecords, StatsAndHistogramJsonMatchReference)
{
    StatRegistry reg;
    std::uint64_t c = 42;
    reg.addCounter("b.counter", c);
    reg.addProbe("a.probe", []() { return 0.30000000000000004; });
    std::string got = capture([&](std::FILE *f) { reg.dumpJson(f); });
    std::string want = sprint("{\n  %s: %.17g,\n  %s: %" PRIu64 "\n}\n",
                              jsonQuote("a.probe").c_str(),
                              0.30000000000000004,
                              jsonQuote("b.counter").c_str(), c);
    EXPECT_EQ(got, want);

    Histogram h(0.25, 3);
    h.add(-1.0);
    h.add(0.1);
    h.add(0.6);
    h.add(9.0);
    EXPECT_EQ(capture([&](std::FILE *f) { h.dumpJson(f); }),
              sprint("{\"bucket_width\":%.17g,\"underflow\":%llu,"
                     "\"overflow\":%llu,\"counts\":[%llu,%llu,%llu],"
                     "\"count\":%llu,\"sum\":%.17g,\"mean\":%.17g}\n",
                     0.25, 1ull, 1ull, 1ull, 0ull, 1ull, 4ull,
                     -1.0 + 0.1 + 0.6 + 9.0, h.summary().mean()));
}

TEST(TelemetryWriterRecords, ManifestMatchesReference)
{
    RunManifest m;
    m.label = "w09_\"profess\"";
    m.policy = "profess";
    m.workload = "mcf+lbm";
    m.seed = 18446744073709551615ull;
    m.gitSha = "0123abc";
    m.config = "{\"instr\": 400000}";
    m.wallSeconds = 1.0005;
    m.peakRssKb = 14404;
    m.startedIso = "2026-01-01T00:00:00Z";
    std::string want = "{\n";
    want += "  \"schema\": \"profess-run-manifest-v2\",\n";
    want += "  \"label\": " + jsonQuote(m.label) + ",\n";
    want += "  \"policy\": \"profess\",\n";
    want += "  \"workload\": \"mcf+lbm\",\n";
    want += sprint("  \"seed\": %" PRIu64 ",\n", m.seed);
    want += "  \"git_sha\": \"0123abc\",\n";
    want += "  \"started\": \"2026-01-01T00:00:00Z\",\n";
    want += sprint("  \"wall_seconds\": %.3f,\n", m.wallSeconds);
    want += sprint("  \"peak_rss_kb\": %ld,\n", m.peakRssKb);
    want += "  \"config\": {\"instr\": 400000}\n}\n";
    EXPECT_EQ(capture([&](std::FILE *f) { m.write(f); }), want);
}
