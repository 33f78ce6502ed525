/**
 * @file
 * Precomputed multiply-shift division for runtime-constant divisors.
 *
 * The address-layout hot path computes `block % numGroups` and
 * `block / numGroups` for every access, and `numGroups` (448 single,
 * 1472 quad) is not a power of two, so the compiler emits a real
 * 64-bit divide.  `FastDivMod` replaces it with the classic
 * round-up reciprocal: n / d == (n * ceil(2^64 / d)) >> 64 (exact
 * for all n, d < 2^32 per Granlund & Montgomery), a single `mulhi`.
 */

#ifndef PROFESS_COMMON_FASTDIV_HH
#define PROFESS_COMMON_FASTDIV_HH

#include <cstdint>

#include "common/logging.hh"

namespace profess
{

class FastDivMod
{
  public:
    FastDivMod() = default;

    explicit FastDivMod(std::uint32_t d) : d_(d)
    {
        panic_if(d == 0, "FastDivMod divisor must be nonzero");
        // magic = floor((2^64 - 1) / d) + 1, which is ceil(2^64 / d)
        // for every d > 1; the +1 makes the truncation in mulhi
        // round the quotient correctly for every 32-bit dividend.
        // For d == 1 it would be 2^64, which wraps to 0; div()
        // special-cases that divisor instead.
        magic_ = d == 1 ? 0 : ~std::uint64_t{0} / d + 1;
    }

    std::uint32_t
    div(std::uint32_t n) const
    {
        if (magic_ == 0)
            return n;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(magic_) * n) >> 64);
    }

    std::uint32_t
    mod(std::uint32_t n) const
    {
        return n - div(n) * d_;
    }

    std::uint32_t divisor() const { return d_; }

  private:
    std::uint64_t magic_ = 0;
    std::uint32_t d_ = 1;
};

} // namespace profess

#endif // PROFESS_COMMON_FASTDIV_HH
