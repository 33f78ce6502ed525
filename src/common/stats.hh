/**
 * @file
 * Statistics utilities used by monitors and by result reporting.
 *
 * RunningStat  - numerically stable mean / variance (Welford).
 * ExpSmoother  - simple exponential smoothing, used by RSM (Sec. 3.1.3)
 *                with the paper's alpha = 0.125.
 * Histogram    - fixed-bucket histogram for latency distributions.
 * StatSet      - a component's counters, named once at construction
 *                and bumped by index.
 */

#ifndef PROFESS_COMMON_STATS_HH
#define PROFESS_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

namespace profess
{

/** Welford running mean and variance. */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
    }

    /** @return number of samples added. */
    std::uint64_t count() const { return n_; }

    /** @return sample mean (0 if empty). */
    double mean() const { return mean_; }

    /** @return population variance (0 if fewer than 2 samples). */
    double
    variance() const
    {
        return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
    }

    /** @return population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Reset to the empty state. */
    void
    reset()
    {
        n_ = 0;
        mean_ = 0.0;
        m2_ = 0.0;
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Simple exponential smoothing: avg <- avg + alpha * (x - avg).
 *
 * The first sample initializes the average directly, as is standard.
 */
class ExpSmoother
{
  public:
    /** @param alpha Smoothing parameter in (0, 1]. */
    explicit ExpSmoother(double alpha = 0.125) : alpha_(alpha) {}

    /** Add a sample and return the updated average. */
    double
    add(double x)
    {
        if (!primed_) {
            avg_ = x;
            primed_ = true;
        } else {
            avg_ += alpha_ * (x - avg_);
        }
        return avg_;
    }

    /** @return current smoothed value (0 before the first sample). */
    double value() const { return avg_; }

    /** @return true once at least one sample has been added. */
    bool primed() const { return primed_; }

    /** Reset to the unprimed state. */
    void
    reset()
    {
        avg_ = 0.0;
        primed_ = false;
    }

  private:
    double alpha_;
    double avg_ = 0.0;
    bool primed_ = false;
};

/**
 * Fixed-width-bucket histogram with explicit underflow and overflow
 * accounting.  Construction validates the implied bucket edges
 * (0, w, 2w, ...) are strictly increasing (width > 0 and not so
 * small that consecutive edges collapse in floating point).
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (> 0).
     * @param num_buckets Number of regular buckets (>= 1).
     */
    Histogram(double bucket_width, std::size_t num_buckets);

    /** Add one sample. */
    void
    add(double x)
    {
        stat_.add(x);
        sum_ += x;
        if (x < 0) {
            ++underflow_;
            return;
        }
        auto i = static_cast<std::size_t>(x / width_);
        if (i >= buckets_.size() - 1)
            i = buckets_.size() - 1;
        ++buckets_[i];
    }

    /** @return count in bucket i (last bucket = overflow). */
    std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

    /** @return number of buckets including overflow. */
    std::size_t numBuckets() const { return buckets_.size(); }

    /** @return samples below the first bucket edge (x < 0). */
    std::uint64_t underflow() const { return underflow_; }

    /** @return samples at or beyond the last regular edge. */
    std::uint64_t overflow() const { return buckets_.back(); }

    /** @return summary statistics over all added samples. */
    const RunningStat &summary() const { return stat_; }

    /** @return exact running sum of all added samples (including
     *  underflow), for exporters that must reconcile sum and count
     *  without the rounding of mean * count. */
    double sum() const { return sum_; }

    /** @return width of each regular bucket. */
    double bucketWidth() const { return width_; }

    /**
     * Approximate quantile from the histogram.
     *
     * @param q Quantile in [0, 1].
     * @return Upper edge of the bucket holding the quantile.
     */
    double quantile(double q) const;

    /** Reset all counts (bucket layout is kept). */
    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        underflow_ = 0;
        sum_ = 0.0;
        stat_.reset();
    }

    /**
     * Dump as one JSON object: bucket edges and counts plus
     * explicit "underflow" and "overflow" fields.
     */
    void dumpJson(std::FILE *f) const;

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    double sum_ = 0.0;
    RunningStat stat_;
};

/**
 * A fixed table of named counters.  A component declares its names
 * once, as a static array parallel to an index enum, and bumps the
 * counters by index on the hot path (`++stats_[X]`).  The names are
 * fixed at construction, so StatRegistry::addSet exports every
 * counter, including ones that are still zero.
 */
class StatSet
{
  public:
    /** @param names Counter names in index order; must outlive the
     *  set (a static table). */
    template <std::size_t N>
    explicit StatSet(const char *const (&names)[N]) : StatSet(names, N)
    {
    }

    /** @return counter i (an index of the owner's enum). */
    std::uint64_t &operator[](std::size_t i) { return values_[i]; }
    const std::uint64_t &
    operator[](std::size_t i) const
    {
        return values_[i];
    }

    /** @return number of declared counters. */
    std::size_t size() const { return values_.size(); }

    /** @return the name of counter i. */
    const char *name(std::size_t i) const { return names_[i]; }

    /** @return a counter by name; panics if `name` is not declared. */
    std::uint64_t counter(std::string_view name) const;

    /** Zero every counter. */
    void reset() { values_.assign(values_.size(), 0); }

  private:
    StatSet(const char *const *names, std::size_t n);

    const char *const *names_;
    std::vector<std::uint64_t> values_;
};

/**
 * Box-plot style summary of a data series (Fig. 5 reporting):
 * min, first quartile, median, third quartile, max and geometric mean.
 */
struct BoxSummary
{
    double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
    double gmean = 0;
    std::size_t n = 0;
};

/**
 * Compute a BoxSummary of a series.
 *
 * Quartiles use linear interpolation between order statistics; the
 * geometric mean requires strictly positive data.
 */
BoxSummary boxSummary(std::vector<double> data);

/** @return geometric mean of a strictly positive series (0 if empty). */
double geometricMean(const std::vector<double> &data);

} // namespace profess

#endif // PROFESS_COMMON_STATS_HH
