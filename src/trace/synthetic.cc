#include "trace/synthetic.hh"

#include "common/logging.hh"

namespace profess
{

namespace trace
{

SyntheticTraceSource::SyntheticTraceSource(
    const SyntheticParams &params,
    std::unique_ptr<AddressPattern> pattern)
    : params_(params), pattern_(std::move(pattern)),
      rng_(params.seed, 0x632be59bd9b4e019ull)
{
    fatal_if(params_.mpki <= 0.0, "mpki must be positive");
    fatal_if(!pattern_, "null pattern");
    double mean_instr_per_access = 1000.0 / params_.mpki;
    // Access itself counts as one instruction; bursty accesses have
    // mean gap ~1, so the geometric component compensates to keep
    // the overall mean on target.
    double target_gap = mean_instr_per_access - 1.0;
    if (target_gap < 0.0)
        target_gap = 0.0;
    double b = params_.burstFraction;
    fatal_if(b < 0.0 || b >= 1.0, "burstFraction must be in [0,1)");
    double mean_geom_gap = (target_gap - b * 1.0) / (1.0 - b);
    if (mean_geom_gap < 0.0)
        mean_geom_gap = 0.0;
    geomP_ = 1.0 / (1.0 + mean_geom_gap);
    if (geomP_ < 1.0)
        geomLog1mP_ = __builtin_log(1.0 - geomP_);
}

bool
SyntheticTraceSource::next(MemAccess &out)
{
    if (params_.phaseAccesses > 0 && accessCount_ > 0 &&
        accessCount_ % params_.phaseAccesses == 0) {
        pattern_->rebuild(rng_);
    }
    ++accessCount_;

    out.vaddr = pattern_->next(rng_);
    out.isWrite = rng_.uniform() < params_.writeFraction;
    if (rng_.uniform() < params_.burstFraction) {
        out.instGap = rng_.below(3); // 0..2, mean 1
    } else if (geomP_ < 1.0) {
        out.instGap =
            static_cast<std::uint32_t>(rng_.geometricLog(geomLog1mP_));
    } else {
        out.instGap = 0; // as Rng::geometric(1)
    }
    return true;
}

std::uint64_t
SyntheticTraceSource::footprintBytes() const
{
    return params_.footprintBytes;
}

void
SyntheticTraceSource::reset()
{
    rng_ = Rng(params_.seed, 0x632be59bd9b4e019ull);
    accessCount_ = 0;
}

} // namespace trace

} // namespace profess
