#include "trace/patterns.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/shared_tables.hh"

namespace profess
{

namespace trace
{

namespace
{

std::uint64_t
alignDown(std::uint64_t x, std::uint64_t a)
{
    return x - x % a;
}

/** Fisher-Yates shuffle of a rank -> page mapping. */
void
shuffle(std::vector<std::uint32_t> &perm, Rng &rng)
{
    for (std::size_t i = perm.size(); i > 1; --i) {
        std::size_t j = rng.below(static_cast<std::uint32_t>(i));
        std::swap(perm[i - 1], perm[j]);
    }
}

/** Widest guide table: 2^24 buckets. */
constexpr unsigned maxGuideBits = 24;

} // anonymous namespace

/**
 * The part of a HotspotPattern that is a pure function of its page
 * count and skew.  Built once per process by zipfTable() and never
 * changed after.
 */
struct ZipfTable
{
    /** Zipf CDF over ranks; the last entry is exactly 1. */
    std::vector<double> cdf;
    /** The rank -> page map every instance starts from: the
     *  identity shuffled by one fixed stream. */
    std::vector<std::uint32_t> perm;
    /** guide[k] = lower_bound(cdf, k * 2^-bits) for k in
     *  [0, 2^bits], with 2^bits >= the page count (up to
     *  maxGuideBits). */
    std::vector<std::uint32_t> guide;
    /** 32 - bits: draw r falls in bucket r >> shift. */
    unsigned shift = 0;
};

namespace
{

ZipfTable
buildZipfTable(std::size_t num_pages, double zipf_s)
{
    ZipfTable t;
    t.cdf.resize(num_pages);
    double acc = 0.0;
    for (std::size_t r = 0; r < num_pages; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
        t.cdf[r] = acc;
    }
    for (auto &c : t.cdf)
        c /= acc;

    t.perm.resize(num_pages);
    for (std::size_t i = 0; i < num_pages; ++i)
        t.perm[i] = static_cast<std::uint32_t>(i);
    Rng seeder(0x9e3779b97f4a7c15ull, 0x5bd1e995u);
    shuffle(t.perm, seeder);

    unsigned bits = 1;
    while (bits < maxGuideBits && (std::size_t{1} << bits) < num_pages)
        ++bits;
    t.shift = 32 - bits;
    std::size_t buckets = std::size_t{1} << bits;
    t.guide.resize(buckets + 1);
    std::size_t rank = 0;
    for (std::size_t k = 0; k <= buckets; ++k) {
        double edge = std::ldexp(static_cast<double>(k),
                                 -static_cast<int>(bits));
        while (rank < num_pages && t.cdf[rank] < edge)
            ++rank;
        t.guide[k] = static_cast<std::uint32_t>(rank);
    }
    return t;
}

/** @return the shared table for (num_pages, zipf_s). */
const ZipfTable &
zipfTable(std::size_t num_pages, double zipf_s)
{
    return SharedTables<std::pair<std::size_t, double>, ZipfTable>::get(
        {num_pages, zipf_s},
        [&] { return buildZipfTable(num_pages, zipf_s); });
}

} // anonymous namespace

SequentialPattern::SequentialPattern(std::uint64_t footprint,
                                     Addr start)
    : footprint_(alignDown(footprint, lineBytes)), pos_(start)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    pos_ %= footprint_;
}

Addr
SequentialPattern::next(Rng &rng)
{
    (void)rng;
    Addr a = pos_;
    pos_ += lineBytes;
    if (pos_ >= footprint_)
        pos_ = 0;
    return a;
}

MultiStreamPattern::MultiStreamPattern(std::uint64_t footprint,
                                       unsigned num_streams)
    : footprint_(alignDown(footprint, lineBytes))
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    panic_if(num_streams == 0, "need at least one stream");
    pos_.assign(num_streams, tickNever);
}

Addr
MultiStreamPattern::next(Rng &rng)
{
    std::size_t i = pos_.size() == 1
        ? 0
        : rng.below(static_cast<std::uint32_t>(pos_.size()));
    if (pos_[i] == tickNever) {
        // Lazy random start: real programs' arrays sit at unrelated
        // offsets, so streams must not align on bank boundaries.
        pos_[i] = rng.below64(footprint_ / lineBytes) * lineBytes;
    }
    Addr a = pos_[i];
    pos_[i] += lineBytes;
    if (pos_[i] >= footprint_)
        pos_[i] = 0;
    return a;
}

StridedPattern::StridedPattern(std::uint64_t footprint,
                               std::uint64_t stride)
    : footprint_(alignDown(footprint, lineBytes)), stride_(stride),
      pos_(0), phase_(0)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    panic_if(stride_ == 0 || stride_ % lineBytes != 0,
             "stride must be a positive multiple of the line size");
}

Addr
StridedPattern::next(Rng &rng)
{
    (void)rng;
    Addr a = pos_;
    pos_ += stride_;
    if (pos_ >= footprint_) {
        phase_ += lineBytes;
        if (phase_ >= stride_ || phase_ >= footprint_)
            phase_ = 0;
        pos_ = phase_;
    }
    return a;
}

HotspotPattern::HotspotPattern(std::uint64_t footprint, double zipf_s,
                               std::uint64_t page_bytes)
    : footprint_(alignDown(footprint, lineBytes)),
      pageBytes_(page_bytes),
      linesPerPage_(std::max<std::uint64_t>(1, page_bytes / lineBytes)),
      table_(zipfTable(std::max<std::size_t>(
                           1, static_cast<std::size_t>(footprint_ /
                                                       pageBytes_)),
                       zipf_s)),
      perm_(table_.perm)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
}

void
HotspotPattern::rebuild(Rng &rng)
{
    shuffle(perm_, rng);
}

std::size_t
HotspotPattern::rankOf(std::uint32_t r) const
{
    // u lies in bucket k = r >> shift, i.e. in [k, k + 1) * 2^-bits,
    // so its lower bound in the CDF lies in [guide[k], guide[k + 1]].
    double u = r * (1.0 / 4294967296.0);
    std::uint32_t k = r >> table_.shift;
    const double *cdf = table_.cdf.data();
    std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf + table_.guide[k],
                         cdf + table_.guide[k + 1], u) -
        cdf);
    return std::min(rank, table_.cdf.size() - 1);
}

Addr
HotspotPattern::next(Rng &rng)
{
    // The one raw draw rng.uniform() would take.
    std::uint64_t page = perm_[rankOf(rng.next())];
    Addr a = page * pageBytes_ + rng.below64(linesPerPage_) * lineBytes;
    if (a >= footprint_)
        a = footprint_ - lineBytes;
    return a;
}

UniformPattern::UniformPattern(std::uint64_t footprint)
    : footprint_(alignDown(footprint, lineBytes))
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
}

Addr
UniformPattern::next(Rng &rng)
{
    return rng.below64(footprint_ / lineBytes) * lineBytes;
}

ClusteredPattern::ClusteredPattern(std::uint64_t footprint,
                                   std::uint64_t window_bytes,
                                   double mean_dwell)
    : footprint_(alignDown(footprint, lineBytes)),
      windowBytes_(window_bytes)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    panic_if(window_bytes < lineBytes,
             "window smaller than one line");
    panic_if(mean_dwell < 1.0, "mean dwell must be >= 1");
    if (windowBytes_ > footprint_)
        windowBytes_ = footprint_;
    jumpProb_ = 1.0 / mean_dwell;
}

Addr
ClusteredPattern::next(Rng &rng)
{
    if (!primed_ || rng.uniform() < jumpProb_) {
        std::uint64_t windows =
            std::max<std::uint64_t>(1, footprint_ / windowBytes_);
        windowBase_ = rng.below64(windows) * windowBytes_;
        primed_ = true;
    }
    std::uint64_t lines = windowBytes_ / lineBytes;
    Addr a = windowBase_ + rng.below64(lines) * lineBytes;
    if (a >= footprint_)
        a = footprint_ - lineBytes;
    return a;
}

void
MixedPattern::add(double weight, std::unique_ptr<AddressPattern> p)
{
    panic_if(weight <= 0.0, "mixture weight must be positive");
    totalWeight_ += weight;
    cumWeight_.push_back(totalWeight_);
    parts_.push_back(std::move(p));
}

Addr
MixedPattern::next(Rng &rng)
{
    panic_if(parts_.empty(), "empty mixture");
    double u = rng.uniform() * totalWeight_;
    auto it =
        std::lower_bound(cumWeight_.begin(), cumWeight_.end(), u);
    std::size_t i = static_cast<std::size_t>(it - cumWeight_.begin());
    if (i >= parts_.size())
        i = parts_.size() - 1;
    return parts_[i]->next(rng);
}

void
MixedPattern::rebuild(Rng &rng)
{
    for (auto &p : parts_)
        p->rebuild(rng);
}

} // namespace trace

} // namespace profess
