/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Environment knobs:
 *   PROFESS_INSTR     measured instructions per program
 *                     (default 3M single / 2M multi)
 *   PROFESS_WARMUP    warm-up instructions (default 1M)
 *   PROFESS_QUICK     =1: quarter-size runs for smoke testing
 *   PROFESS_WORKLOADS comma list (default: all of Table 10)
 *   PROFESS_JOBS      worker threads (default: all hardware
 *                     threads); `--jobs N` / `-j N` overrides
 *   PROFESS_PROGRESS  =1/=0: force per-job progress lines on/off
 *                     (default: on when stderr is a terminal)
 *   PROFESS_LOG       log verbosity (0/1/2 or error/warn/info);
 *                     `--quiet` / `--verbose` / `--log-level N`
 *                     override
 *   PROFESS_TRACE     =1: record decision + chrome traces
 *                     (`--trace` equivalent)
 *   PROFESS_TELEMETRY_OUT
 *                     artifact directory for per-run manifests,
 *                     stats and time-series
 *                     (`--telemetry-out DIR` equivalent)
 *   PROFESS_EPOCH_TICKS
 *                     epoch-sampler period in MC ticks
 *                     (default 25000; `--epoch-ticks N`)
 *   PROFESS_SCENARIO  fault/intervention schedule file
 *                     (`--scenario FILE` equivalent; see
 *                     src/sim/scenario.hh and EXPERIMENTS.md)
 *
 * Results are bit-identical for every worker count: job seeds are
 * derived from (policy, mix, sweep point), never from scheduling
 * (see src/sim/parallel_runner.hh).
 */

#ifndef PROFESS_BENCH_BENCH_UTIL_HH
#define PROFESS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"

namespace profess
{

namespace bench
{

/** Run-size configuration from the environment. */
struct BenchEnv
{
    std::uint64_t singleInstr = 3'000'000;
    std::uint64_t multiInstr = 2'000'000;
    std::uint64_t warmupInstr = 1'000'000;
    std::vector<std::string> workloads;
};

inline BenchEnv
benchEnv()
{
    BenchEnv e;
    if (envInt<unsigned>("PROFESS_QUICK", 0)) {
        e.singleInstr = 600'000;
        e.multiInstr = 400'000;
        e.warmupInstr = 200'000;
    }
    e.singleInstr = sim::ExperimentRunner::instrFromEnv(e.singleInstr);
    e.multiInstr = sim::ExperimentRunner::instrFromEnv(e.multiInstr);
    e.warmupInstr = envInt<std::uint64_t>("PROFESS_WARMUP", e.warmupInstr);

    const char *wl = std::getenv("PROFESS_WORKLOADS");
    if (wl && *wl) {
        e.workloads = splitList(wl, ',');
    } else {
        for (const auto &w : sim::multiprogramWorkloads())
            e.workloads.push_back(w.name);
    }
    return e;
}

/** Banner naming the paper artifact being regenerated. */
inline void
header(const char *what, const char *paper_ref)
{
    std::printf("\n=============================================="
                "==============\n");
    std::printf("%s\n(reproduces %s of Knyaginin et al., "
                "\"ProFess\", HPCA 2018; scaled 1/100 per "
                "DESIGN.md)\n", what, paper_ref);
    std::printf("================================================"
                "============\n");
}

/**
 * Experiment runner honoring `--jobs N` / `-j N` / PROFESS_JOBS,
 * announcing the worker count when running parallel.  Also applies
 * the shared observability flags: logging (--quiet/--verbose/
 * --log-level), telemetry (--trace/--telemetry-out/--epoch-ticks)
 * and fault scenarios (--scenario FILE), stripping them from argv.
 */
inline sim::ParallelRunner
makeRunner(int &argc, char **argv)
{
    logging::configure(argc, argv);
    sim::TelemetryConfig::global().initFromArgs(argc, argv);
    sim::ScenarioConfig::global().initFromArgs(argc, argv);
    unsigned jobs = sim::ParallelRunner::jobsFromArgs(argc, argv);
    if (jobs > 1)
        std::fprintf(stderr, "[profess] running with %u workers "
                     "(--jobs 1 for the serial path)\n", jobs);
    return sim::ParallelRunner(jobs);
}

/** Geometric-mean accumulator for ratio series. */
class RatioSeries
{
  public:
    void
    add(double r)
    {
        ratios_.push_back(r);
    }

    double gmean() const { return geometricMean(ratios_); }

    double
    max() const
    {
        double m = ratios_.empty() ? 0.0 : ratios_[0];
        for (double r : ratios_)
            m = r > m ? r : m;
        return m;
    }

    double
    min() const
    {
        double m = ratios_.empty() ? 0.0 : ratios_[0];
        for (double r : ratios_)
            m = r < m ? r : m;
        return m;
    }

    const std::vector<double> &values() const { return ratios_; }

  private:
    std::vector<double> ratios_;
};

/** All ten Table 9 programs. */
inline std::vector<std::string>
allPrograms()
{
    std::vector<std::string> v;
    for (const auto &p : trace::specProfiles())
        v.push_back(p.name);
    return v;
}

} // namespace bench

} // namespace profess

#endif // PROFESS_BENCH_BENCH_UTIL_HH
