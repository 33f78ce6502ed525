/**
 * @file
 * FastDivMod against the hardware divide: every divisor up to 4096
 * at the edge dividends, plus seeded random divisors and dividends
 * over the whole 32-bit range.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/fastdiv.hh"
#include "common/rng.hh"

using namespace profess;

namespace
{

void
expectExact(const FastDivMod &f, std::uint32_t n)
{
    std::uint32_t d = f.divisor();
    ASSERT_EQ(f.div(n), n / d) << n << " / " << d;
    ASSERT_EQ(f.mod(n), n % d) << n << " % " << d;
}

} // anonymous namespace

TEST(FastDivMod, SmallDivisorsAtEdgeDividends)
{
    // d == 1 is special-cased: its magic 2^64 does not fit.
    for (std::uint32_t d = 1; d <= 4096; ++d) {
        FastDivMod f(d);
        for (std::uint32_t n : {0u, d - 1, d, d + 1, 2 * d - 1, 2 * d,
                                0xfffffffeu, 0xffffffffu}) {
            expectExact(f, n);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(FastDivMod, RandomDivisorsAndDividends)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed, 5);
        for (int i = 0; i < 200000; ++i) {
            // Half the divisors small (the layout's group counts),
            // half anywhere in [1, 2^32).
            std::uint32_t d = i % 2 == 0 ? rng.below(1u << 16) + 1
                                         : rng.below(0xffffffffu) + 1;
            expectExact(FastDivMod(d), rng.next());
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(FastDivModDeathTest, RejectsZero)
{
    EXPECT_DEATH(FastDivMod(0), "nonzero");
}
