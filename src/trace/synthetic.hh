/**
 * @file
 * Synthetic memory-access stream generator.
 *
 * Combines an address pattern with an inter-access instruction-gap
 * model (geometric gaps with a configurable bursty fraction), a write
 * fraction, and optional working-set phase changes.  The mean gap is
 * calibrated so that the stream realizes a target MPKI (L3 misses per
 * kilo-instruction, Table 9).
 */

#ifndef PROFESS_TRACE_SYNTHETIC_HH
#define PROFESS_TRACE_SYNTHETIC_HH

#include <memory>
#include <string>

#include "common/rng.hh"
#include "trace/access.hh"
#include "trace/patterns.hh"

namespace profess
{

namespace trace
{

/** Parameters of a synthetic stream. */
struct SyntheticParams
{
    std::string name = "synthetic";
    std::uint64_t footprintBytes = 4 * MiB;
    double mpki = 20.0;          ///< target misses per kilo-instr
    double writeFraction = 0.3;  ///< fraction of accesses that write
    double burstFraction = 0.3;  ///< accesses arriving back-to-back
    std::uint64_t phaseAccesses = 0; ///< rebuild() period (0 = never)
    std::uint64_t seed = 1;
};

/** TraceSource producing an endless synthetic stream. */
class SyntheticTraceSource : public TraceSource
{
  public:
    /**
     * @param params Stream parameters.
     * @param pattern Address pattern (ownership transferred).
     */
    SyntheticTraceSource(const SyntheticParams &params,
                         std::unique_ptr<AddressPattern> pattern);

    bool next(MemAccess &out) override;
    std::uint64_t footprintBytes() const override;
    void reset() override;

    /** @return the stream parameters. */
    const SyntheticParams &params() const { return params_; }

  private:
    SyntheticParams params_;
    std::unique_ptr<AddressPattern> pattern_;
    Rng rng_;
    std::uint64_t accessCount_ = 0;
    double geomP_ = 1.0;      ///< geometric gap success probability
    double geomLog1mP_ = 0.0; ///< log(1 - geomP_), if geomP_ < 1
};

} // namespace trace

} // namespace profess

#endif // PROFESS_TRACE_SYNTHETIC_HH
