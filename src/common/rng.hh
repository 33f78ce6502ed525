/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small PCG32 implementation (O'Neill, pcg-random.org) so that every
 * simulation is reproducible from a seed, independent of the standard
 * library implementation.  Each workload program instance owns its own
 * stream, so multi-program workloads are order-independent.
 */

#ifndef PROFESS_COMMON_RNG_HH
#define PROFESS_COMMON_RNG_HH

#include <cstdint>
#include <string_view>

namespace profess
{

/**
 * SplitMix64 finalizer (Steele et al.): bijective 64-bit mixing,
 * the standard seed-spreading function.  Used to derive
 * statistically independent per-job seeds from structured inputs
 * (base seed, policy, workload, sweep point) so results depend only
 * on the job's identity — never on thread count or schedule.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Fold a 64-bit value into a hash (order-sensitive). */
constexpr std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    return mix64(h ^ mix64(v));
}

/** Fold a string into a hash (FNV-1a, then mixed). */
constexpr std::uint64_t
hashCombine(std::uint64_t h, std::string_view s)
{
    std::uint64_t f = 1469598103934665603ull; // FNV offset basis
    for (char c : s) {
        f ^= static_cast<unsigned char>(c);
        f *= 1099511628211ull; // FNV prime
    }
    return hashCombine(h, f);
}

/** PCG32 pseudo-random generator: 64-bit state, 32-bit output. */
class Rng
{
  public:
    /**
     * @param seed Initial state seed.
     * @param stream Stream selector; different streams are independent.
     */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull,
                 std::uint64_t stream = 0xda3e39cb94b95bdbull)
    {
        inc_ = (stream << 1u) | 1u;
        state_ = 0u;
        next();
        state_ += seed;
        next();
    }

    /** @return next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ull + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** @return uniform integer in [0, bound); bound must be > 0. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        // Reject the biased region [0, 2^32 mod bound).  That
        // threshold is below bound, so any r >= bound is accepted
        // without computing it.
        for (;;) {
            std::uint32_t r = next();
            if (r >= bound || r >= (-bound) % bound)
                return r % bound;
        }
    }

    /** @return uniform 64-bit integer in [0, bound). */
    std::uint64_t
    below64(std::uint64_t bound)
    {
        if (bound <= 0xffffffffull)
            return below(static_cast<std::uint32_t>(bound));
        // Compose two 32-bit draws; slight bias is irrelevant for
        // workload generation at these magnitudes.
        std::uint64_t r =
            (static_cast<std::uint64_t>(next()) << 32) | next();
        return r % bound;
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /**
     * Geometric inter-arrival sample.
     *
     * @param p Success probability per trial, 0 < p <= 1.
     * @return Number of failures before the first success (>= 0).
     */
    std::uint64_t
    geometric(double p)
    {
        if (p >= 1.0)
            return 0;
        return geometricLog(__builtin_log(1.0 - p));
    }

    /**
     * geometric(p) for p < 1, with log(1 - p) computed once by a
     * caller that draws many samples of the same p.
     */
    std::uint64_t
    geometricLog(double log_1mp)
    {
        double u = uniform();
        // Avoid log(0).
        if (u <= 0.0)
            u = 1e-12;
        // floor(log(u) / log(1-p))
        double g = __builtin_log(u) / log_1mp;
        return g < 0 ? 0 : static_cast<std::uint64_t>(g);
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace profess

#endif // PROFESS_COMMON_RNG_HH
