/**
 * @file
 * Tests for the workload substrate: address patterns, the synthetic
 * generator's MPKI/write-fraction calibration, Table 9 profiles, and
 * trace-file round trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "trace/patterns.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

using namespace profess;
using namespace profess::trace;

namespace
{

constexpr std::uint64_t fp = 1 * MiB;

} // anonymous namespace

TEST(Patterns, SequentialWraps)
{
    SequentialPattern p(4 * lineBytes);
    Rng rng(1);
    EXPECT_EQ(p.next(rng), 0u);
    EXPECT_EQ(p.next(rng), 64u);
    EXPECT_EQ(p.next(rng), 128u);
    EXPECT_EQ(p.next(rng), 192u);
    EXPECT_EQ(p.next(rng), 0u);
}

TEST(Patterns, StridedCoversAllLines)
{
    StridedPattern p(16 * lineBytes, 4 * lineBytes);
    Rng rng(1);
    std::set<Addr> seen;
    for (int i = 0; i < 16; ++i)
        seen.insert(p.next(rng));
    EXPECT_EQ(seen.size(), 16u);
}

TEST(Patterns, HotspotSkewed)
{
    HotspotPattern p(fp, 1.0);
    Rng rng(2);
    std::map<std::uint64_t, unsigned> page_counts;
    for (int i = 0; i < 20000; ++i)
        ++page_counts[p.next(rng) / (4 * KiB)];
    unsigned max_count = 0;
    for (auto &kv : page_counts)
        max_count = std::max(max_count, kv.second);
    // Uniform would give ~78 per page (256 pages); Zipf(1.0) must
    // concentrate far more on the hottest page.
    EXPECT_GT(max_count, 500u);
}

TEST(Patterns, HotspotRebuildMovesHotPage)
{
    HotspotPattern p(fp, 1.2);
    Rng rng(3);
    auto hottest = [&]() {
        std::map<std::uint64_t, unsigned> counts;
        for (int i = 0; i < 5000; ++i)
            ++counts[p.next(rng) / (4 * KiB)];
        std::uint64_t best = 0;
        unsigned best_n = 0;
        for (auto &kv : counts) {
            if (kv.second > best_n) {
                best_n = kv.second;
                best = kv.first;
            }
        }
        return best;
    };
    std::uint64_t before = hottest();
    // A rebuild re-permutes ranks; the hot page should move (the
    // chance it stays is ~1/256).
    p.rebuild(rng);
    std::uint64_t after = hottest();
    EXPECT_NE(before, after);
}

namespace
{

/**
 * HotspotPattern as first written, kept as the reference the
 * shared-table version must reproduce draw for draw: a per-instance
 * pow() CDF searched in full by lower_bound on every draw, and the
 * identity rank -> page map shuffled by the fixed seeder stream.
 */
class ReferenceHotspot
{
  public:
    ReferenceHotspot(std::uint64_t footprint, double zipf_s,
                     std::uint64_t page_bytes)
        : footprint_(footprint - footprint % lineBytes),
          pageBytes_(page_bytes)
    {
        std::size_t pages = std::max<std::size_t>(
            1, static_cast<std::size_t>(footprint_ / pageBytes_));
        double acc = 0.0;
        for (std::size_t r = 0; r < pages; ++r) {
            acc += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
            cdf_.push_back(acc);
        }
        for (auto &c : cdf_)
            c /= acc;
        for (std::size_t i = 0; i < pages; ++i)
            perm_.push_back(static_cast<std::uint32_t>(i));
        Rng seeder(0x9e3779b97f4a7c15ull, 0x5bd1e995u);
        rebuild(seeder);
    }

    std::size_t
    rankOf(double u) const
    {
        auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf_.begin()),
            cdf_.size() - 1);
    }

    Addr
    next(Rng &rng)
    {
        std::uint64_t page = perm_[rankOf(rng.uniform())];
        std::uint64_t lines =
            std::max<std::uint64_t>(1, pageBytes_ / lineBytes);
        Addr a = page * pageBytes_ + rng.below64(lines) * lineBytes;
        return a >= footprint_ ? footprint_ - lineBytes : a;
    }

    void
    rebuild(Rng &rng)
    {
        for (std::size_t i = perm_.size(); i > 1; --i) {
            std::size_t j = rng.below(static_cast<std::uint32_t>(i));
            std::swap(perm_[i - 1], perm_[j]);
        }
    }

    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::uint64_t footprint_;
    std::uint64_t pageBytes_;
    std::vector<double> cdf_;
    std::vector<std::uint32_t> perm_;
};

struct HotspotCase
{
    std::uint64_t footprint;
    double zipfS;
    std::uint64_t pageBytes;
};

/** One page (two ways), odd sizes, a non-power-of-two page count,
 *  2-KiB pages and a range of skews. */
const HotspotCase hotspotCases[] = {
    {lineBytes, 1.0, 4 * KiB},
    {4 * KiB, 0.8, 4 * KiB},
    {37 * 4 * KiB + 3 * lineBytes, 1.0, 4 * KiB},
    {1 * MiB, 0.6, 4 * KiB},
    {1 * MiB, 1.2, 2 * KiB},
    {5 * MiB + 4 * KiB, 1.0, 4 * KiB},
    {3 * MiB, 0.0, 4 * KiB},
};

} // anonymous namespace

TEST(Patterns, HotspotMatchesNaiveReference)
{
    for (const HotspotCase &c : hotspotCases) {
        SCOPED_TRACE(testing::Message()
                     << "footprint " << c.footprint << " s " << c.zipfS
                     << " page " << c.pageBytes);
        HotspotPattern fast(c.footprint, c.zipfS, c.pageBytes);
        ReferenceHotspot ref(c.footprint, c.zipfS, c.pageBytes);
        Rng fast_rng(17, 3);
        Rng ref_rng(17, 3);
        for (int i = 0; i < 20000; ++i) {
            if (i % 5000 == 4999) {
                fast.rebuild(fast_rng);
                ref.rebuild(ref_rng);
            }
            ASSERT_EQ(fast.next(fast_rng), ref.next(ref_rng))
                << "draw " << i;
        }
        // Same number of raw draws: the streams continue alike.
        EXPECT_EQ(fast_rng.next(), ref_rng.next());
    }
}

TEST(Patterns, HotspotRankOfMatchesFullSearchOnBucketEdges)
{
    auto check = [](const HotspotPattern &fast,
                    const ReferenceHotspot &ref, std::uint64_t r) {
        if (testing::Test::HasFatalFailure())
            return; // report only the first mismatch
        auto r32 = static_cast<std::uint32_t>(r);
        ASSERT_EQ(fast.rankOf(r32),
                  ref.rankOf(r32 * (1.0 / 4294967296.0)))
            << "r " << r32;
    };
    for (const HotspotCase &c : hotspotCases) {
        SCOPED_TRACE(testing::Message()
                     << "footprint " << c.footprint << " s " << c.zipfS);
        HotspotPattern fast(c.footprint, c.zipfS, c.pageBytes);
        ReferenceHotspot ref(c.footprint, c.zipfS, c.pageBytes);
        // Draws on the edges of every guide-table width (low bits
        // zero) and one either side.
        for (unsigned bits = 1; bits <= 24; ++bits) {
            std::uint64_t buckets = std::uint64_t{1} << bits;
            std::uint64_t step = std::max<std::uint64_t>(1, buckets / 4096);
            for (std::uint64_t k = 0; k < buckets; k += step) {
                std::uint64_t r = k << (32 - bits);
                check(fast, ref, r);
                check(fast, ref, r + 1);
                if (r > 0)
                    check(fast, ref, r - 1);
            }
        }
        check(fast, ref, 0xffffffffu);
        // Draws on and beside every CDF value.
        for (double v : ref.cdf()) {
            std::uint64_t r = static_cast<std::uint64_t>(
                v * 4294967296.0);
            for (std::uint64_t d : {r - 1, r, r + 1})
                if (d <= 0xffffffffu)
                    check(fast, ref, d);
        }
    }
}

TEST(Patterns, HotspotInstancesShareNoMutableState)
{
    // Two instances share one table; rebuilding one must not move
    // the other's pages.
    HotspotPattern a(fp, 1.0);
    HotspotPattern b(fp, 1.0);
    ReferenceHotspot ref(fp, 1.0, 4 * KiB);
    Rng scratch(5);
    a.rebuild(scratch);
    Rng b_rng(6);
    Rng ref_rng(6);
    for (int i = 0; i < 5000; ++i)
        ASSERT_EQ(b.next(b_rng), ref.next(ref_rng)) << "draw " << i;
}

TEST(Patterns, UniformInBounds)
{
    UniformPattern p(fp);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        Addr a = p.next(rng);
        EXPECT_LT(a, fp);
        EXPECT_EQ(a % lineBytes, 0u);
    }
}

TEST(Patterns, ClusteredDwellsInWindow)
{
    ClusteredPattern p(fp, 4 * KiB, 8.0);
    Rng rng(5);
    // Consecutive accesses mostly share the 4-KiB window.
    unsigned same_window = 0;
    Addr prev = p.next(rng);
    for (int i = 0; i < 5000; ++i) {
        Addr a = p.next(rng);
        same_window += a / (4 * KiB) == prev / (4 * KiB);
        prev = a;
    }
    // Mean dwell 8 => ~7/8 of transitions stay, minus window reuse
    // noise.
    EXPECT_GT(same_window, 5000u * 6 / 10);
}

TEST(Patterns, MultiStreamInterleavesSequentialRuns)
{
    MultiStreamPattern p(fp, 4);
    Rng rng(6);
    // Track per-64B deltas: within a stream they are +64.
    std::map<Addr, int> seen;
    for (int i = 0; i < 4000; ++i)
        ++seen[p.next(rng)];
    // Streams advance without repeating (footprint >> samples).
    for (auto &kv : seen)
        EXPECT_LE(kv.second, 2);
}

TEST(Patterns, MixedRespectsBounds)
{
    MixedPattern mix;
    mix.add(1.0, std::make_unique<SequentialPattern>(fp));
    mix.add(2.0, std::make_unique<UniformPattern>(fp));
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(mix.next(rng), fp);
}

TEST(Synthetic, MpkiCalibrated)
{
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 25.0;
    sp.writeFraction = 0.0;
    sp.burstFraction = 0.3;
    sp.seed = 9;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    MemAccess a;
    std::uint64_t instr = 0, accesses = 0;
    for (int i = 0; i < 50000; ++i) {
        ASSERT_TRUE(src.next(a));
        instr += a.instGap + 1;
        ++accesses;
    }
    double mpki = 1000.0 * static_cast<double>(accesses) /
                  static_cast<double>(instr);
    EXPECT_NEAR(mpki, 25.0, 1.5);
}

TEST(Synthetic, WriteFractionCalibrated)
{
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 20.0;
    sp.writeFraction = 0.35;
    sp.seed = 10;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    MemAccess a;
    std::uint64_t writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(src.next(a));
        writes += a.isWrite;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.35, 0.02);
}

TEST(Synthetic, ResetReproduces)
{
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 20.0;
    sp.seed = 11;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    std::vector<MemAccess> first(100);
    for (auto &a : first)
        ASSERT_TRUE(src.next(a));
    src.reset();
    for (const auto &want : first) {
        MemAccess got;
        ASSERT_TRUE(src.next(got));
        EXPECT_EQ(got.vaddr, want.vaddr);
        EXPECT_EQ(got.isWrite, want.isWrite);
        EXPECT_EQ(got.instGap, want.instGap);
    }
}

class ProfileSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ProfileSweep, BuildsAndStaysInFootprint)
{
    const char *name = GetParam();
    const BenchmarkProfile *p = findProfile(name);
    ASSERT_NE(p, nullptr);
    auto src = makeSpecSource(name, defaultScale, 13);
    std::uint64_t footprint = src->footprintBytes();
    // Footprint ~ Table 9 value / 100, in whole pages.
    double expect =
        p->footprintMB * defaultScale * static_cast<double>(MiB);
    EXPECT_NEAR(static_cast<double>(footprint), expect,
                static_cast<double>(4 * KiB) + 1);

    MemAccess a;
    std::uint64_t instr = 0, n = 20000;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(src->next(a));
        EXPECT_LT(a.vaddr, footprint);
        instr += a.instGap + 1;
    }
    double mpki =
        1000.0 * static_cast<double>(n) / static_cast<double>(instr);
    EXPECT_NEAR(mpki, p->mpki, p->mpki * 0.10) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Table9, ProfileSweep,
    ::testing::Values("bwaves", "GemsFDTD", "lbm", "leslie3d",
                      "libquantum", "mcf", "milc", "omnetpp",
                      "soplex", "zeusmp"));

TEST(Profiles, UnknownNameIsNull)
{
    EXPECT_EQ(findProfile("nosuch"), nullptr);
}

TEST(TraceFile, RoundTrip)
{
    std::string path = ::testing::TempDir() + "/pf_roundtrip.trace";
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 20.0;
    sp.seed = 14;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    std::vector<MemAccess> ref(500);
    {
        TraceWriter w(path, fp);
        for (auto &a : ref) {
            ASSERT_TRUE(src.next(a));
            w.append(a);
        }
        w.close();
    }
    FileTraceSource file(path);
    EXPECT_EQ(file.count(), 500u);
    EXPECT_EQ(file.footprintBytes(), fp);
    for (const auto &want : ref) {
        MemAccess got;
        ASSERT_TRUE(file.next(got));
        EXPECT_EQ(got.vaddr, want.vaddr);
        EXPECT_EQ(got.isWrite, want.isWrite);
        EXPECT_EQ(got.instGap, want.instGap);
    }
    MemAccess end;
    EXPECT_FALSE(file.next(end));
    // reset() rewinds.
    file.reset();
    MemAccess again;
    ASSERT_TRUE(file.next(again));
    EXPECT_EQ(again.vaddr, ref[0].vaddr);
    std::remove(path.c_str());
}

TEST(TraceFile, RecordHelper)
{
    std::string path = ::testing::TempDir() + "/pf_record.trace";
    auto src = makeSpecSource("soplex", defaultScale, 15);
    EXPECT_EQ(recordTrace(*src, 300, path), 300u);
    FileTraceSource file(path);
    EXPECT_EQ(file.count(), 300u);
    std::remove(path.c_str());
}

namespace
{

/** Write `n` records (vaddr 64 * i, writes on odd i) with a 1-MiB
 *  footprint; @return the path. */
std::string
writeTrace(const std::string &name, unsigned n)
{
    std::string path = ::testing::TempDir() + "/" + name;
    TraceWriter w(path, fp);
    for (unsigned i = 0; i < n; ++i) {
        MemAccess a;
        a.vaddr = i * lineBytes;
        a.instGap = 10;
        a.isWrite = (i % 2) != 0;
        w.append(a);
    }
    w.close();
    return path;
}

/** Overwrite `len` bytes of a file at `offset`. */
void
patchBytes(const std::string &path, long offset, const void *bytes,
           std::size_t len)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
    std::fclose(f);
}

constexpr long headerBytes = 4 + 4 + 8 + 8;
constexpr long recordBytes = 8 + 4 + 1;

/** Replay every record of a trace file. */
void
drain(const std::string &path)
{
    FileTraceSource src(path);
    MemAccess a;
    while (src.next(a)) {
    }
}

} // anonymous namespace

TEST(TraceFileDeathTest, HeaderCountMustMatchFileSize)
{
    std::string path = writeTrace("pf_count.trace", 3);
    std::uint64_t four = 4;
    patchBytes(path, 4 + 4 + 8, &four, sizeof(four));
    EXPECT_EXIT(FileTraceSource src(path), ::testing::ExitedWithCode(1),
                "header count 4 does not match the file size \\(3 "
                "whole records, then 0 bytes of record 3\\)");
    std::filesystem::resize_file(path, headerBytes + recordBytes * 4 - 5);
    EXPECT_EXIT(FileTraceSource src(path), ::testing::ExitedWithCode(1),
                "3 whole records, then 8 bytes of record 3");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, TruncatedRecordIsFatal)
{
    // The file shrinks after it was opened (and its size checked),
    // past what the first buffered read can hold.
    std::string path = writeTrace("pf_trunc.trace", 2000);
    EXPECT_EXIT(
        {
            FileTraceSource src(path);
            std::filesystem::resize_file(
                path, headerBytes + recordBytes * 1500 + 6);
            MemAccess a;
            while (src.next(a)) {
            }
        },
        ::testing::ExitedWithCode(1), "record 1500 is truncated");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, UnknownFlagBitsAreFatal)
{
    std::string path = writeTrace("pf_flags.trace", 3);
    std::uint8_t flags = 0x03;
    patchBytes(path, headerBytes + recordBytes * 2 - 1, &flags, 1);
    EXPECT_EXIT(drain(path), ::testing::ExitedWithCode(1),
                "record 1 has flag byte 0x03");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, VaddrOutsideFootprintIsFatal)
{
    std::string path = writeTrace("pf_vaddr.trace", 3);
    std::uint64_t vaddr = fp;
    patchBytes(path, headerBytes + recordBytes * 2, &vaddr,
               sizeof(vaddr));
    EXPECT_EXIT(drain(path), ::testing::ExitedWithCode(1),
                "record 2 has vaddr 1048576 outside the 1048576-byte "
                "footprint");
    std::remove(path.c_str());
}
