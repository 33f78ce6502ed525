/**
 * @file
 * Address-pattern generators composing synthetic workloads.
 *
 * Each pattern produces 64-B-aligned byte offsets within a footprint.
 * The SPEC-like profiles (spec_profiles.hh) mix these:
 *
 *  - SequentialPattern : streaming sweeps (bwaves, lbm, libquantum)
 *  - StridedPattern    : fixed-stride walks (stencil codes)
 *  - HotspotPattern    : Zipf-skewed page popularity with the hot
 *                        ranks scattered by a permutation, so hot
 *                        pages spread over regions and swap groups
 *  - UniformPattern    : irregular pointer-chasing (mcf, omnetpp)
 */

#ifndef PROFESS_TRACE_PATTERNS_HH
#define PROFESS_TRACE_PATTERNS_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/access.hh"

namespace profess
{

namespace trace
{

/** Generator of line-aligned offsets within [0, footprint). */
class AddressPattern
{
  public:
    virtual ~AddressPattern() = default;

    /** @return next line-aligned byte offset. */
    virtual Addr next(Rng &rng) = 0;

    /** Phase change: re-randomize internal structure (optional). */
    virtual void rebuild(Rng &rng) { (void)rng; }
};

/** Linear sweep over the footprint, wrapping around. */
class SequentialPattern : public AddressPattern
{
  public:
    /**
     * @param footprint Footprint in bytes.
     * @param start Starting offset (line-aligned).
     */
    explicit SequentialPattern(std::uint64_t footprint,
                               Addr start = 0);

    Addr next(Rng &rng) override;

  private:
    std::uint64_t footprint_;
    Addr pos_;
};

/**
 * Multiple interleaved sequential streams.
 *
 * Streaming scientific codes (lbm, bwaves, GemsFDTD) sweep several
 * arrays concurrently; the interleaving of streams (and of the
 * write-back traffic) is what produces row-buffer and bank conflicts
 * in main memory.  Each call advances one stream chosen uniformly at
 * random; streams start evenly spaced across the footprint and wrap.
 */
class MultiStreamPattern : public AddressPattern
{
  public:
    /**
     * @param footprint Footprint in bytes.
     * @param num_streams Concurrent streams (>= 1).
     */
    MultiStreamPattern(std::uint64_t footprint, unsigned num_streams);

    Addr next(Rng &rng) override;

  private:
    std::uint64_t footprint_;
    std::vector<Addr> pos_;
};

/** Fixed-stride walk; on wrap, shifts phase to cover all lines. */
class StridedPattern : public AddressPattern
{
  public:
    /**
     * @param footprint Footprint in bytes.
     * @param stride Stride in bytes (multiple of the line size).
     */
    StridedPattern(std::uint64_t footprint, std::uint64_t stride);

    Addr next(Rng &rng) override;

  private:
    std::uint64_t footprint_;
    std::uint64_t stride_;
    Addr pos_;
    Addr phase_;
};

/** HotspotPattern's shared immutable tables (patterns.cc). */
struct ZipfTable;

/**
 * Zipf-distributed page popularity.
 *
 * Rank r (1-based) has probability proportional to 1/r^s.  Ranks are
 * mapped to pages through a pseudo-random permutation so the hot set
 * is scattered across the address space; rebuild() re-seeds the
 * permutation to model working-set drift.
 *
 * The CDF, the starting permutation and the guide table that makes
 * sampling O(1) depend only on (pages, s), so they are built once
 * per process and shared by every instance; an instance copies only
 * the permutation, which rebuild() changes.
 */
class HotspotPattern : public AddressPattern
{
  public:
    /**
     * @param footprint Footprint in bytes.
     * @param zipf_s Zipf skew parameter (~0.8-1.2 typical).
     * @param page_bytes Popularity granularity (default 4 KiB).
     */
    HotspotPattern(std::uint64_t footprint, double zipf_s,
                   std::uint64_t page_bytes = 4 * KiB);

    Addr next(Rng &rng) override;
    void rebuild(Rng &rng) override;

    /**
     * @param r A raw 32-bit draw, standing for u = r * 2^-32.
     * @return the first rank whose CDF value reaches u (the last
     *         rank if none does), as a search of the whole CDF
     *         would find it.
     */
    std::size_t rankOf(std::uint32_t r) const;

  private:
    std::uint64_t footprint_;
    std::uint64_t pageBytes_;
    std::uint64_t linesPerPage_;
    const ZipfTable &table_;
    std::vector<std::uint32_t> perm_;
};

/** Uniformly random lines over the footprint (pointer chasing). */
class UniformPattern : public AddressPattern
{
  public:
    explicit UniformPattern(std::uint64_t footprint);

    Addr next(Rng &rng) override;

  private:
    std::uint64_t footprint_;
};

/**
 * Clustered random walk: jump to a uniformly random window of the
 * footprint, dwell there for a geometrically distributed number of
 * accesses (uniform lines within the window), then jump again.
 *
 * Models pointer-chasing codes (mcf, omnetpp): globally irregular
 * but with the short-range temporal locality that real linked data
 * structures exhibit - which is what gives such programs their
 * moderate STC hit rates (Fig. 7: mcf ~85%, omnetpp ~70%).
 */
class ClusteredPattern : public AddressPattern
{
  public:
    /**
     * @param footprint Footprint in bytes.
     * @param window_bytes Dwell-window size (>= one line).
     * @param mean_dwell Mean accesses per window (>= 1).
     */
    ClusteredPattern(std::uint64_t footprint,
                     std::uint64_t window_bytes, double mean_dwell);

    Addr next(Rng &rng) override;

  private:
    std::uint64_t footprint_;
    std::uint64_t windowBytes_;
    double jumpProb_; ///< per-access probability of leaving
    Addr windowBase_ = 0;
    bool primed_ = false;
};

/** Probabilistic mixture of sub-patterns. */
class MixedPattern : public AddressPattern
{
  public:
    /** Add a component with the given selection weight. */
    void add(double weight, std::unique_ptr<AddressPattern> p);

    Addr next(Rng &rng) override;
    void rebuild(Rng &rng) override;

  private:
    std::vector<double> cumWeight_;
    std::vector<std::unique_ptr<AddressPattern>> parts_;
    double totalWeight_ = 0.0;
};

} // namespace trace

} // namespace profess

#endif // PROFESS_TRACE_PATTERNS_HH
