/**
 * @file
 * Experiment harness: builds systems, runs workloads, computes the
 * paper's metrics, and caches stand-alone (IPC_SP) reference runs.
 *
 * Used by bench/figures.cc to regenerate the paper's tables and
 * figures.
 */

#ifndef PROFESS_SIM_EXPERIMENT_HH
#define PROFESS_SIM_EXPERIMENT_HH

#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config_fields.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

namespace profess
{

namespace sim
{

/** Aggregate results of one workload run. */
struct RunResult
{
    std::string policy;
    std::vector<std::string> programs;
    std::vector<double> ipc;              ///< per program (at quota)
    std::vector<std::uint64_t> served;    ///< per program
    std::vector<std::uint64_t> servedM1;  ///< per program
    double seconds = 0.0;
    double joules = 0.0;
    double watts = 0.0;
    std::uint64_t servedTotal = 0;
    std::uint64_t swaps = 0;
    double stcHitRate = 0.0;
    double meanReadLatencyNs = 0.0;
    double m1Fraction = 0.0;   ///< fraction of accesses from M1
    double swapFraction = 0.0; ///< swaps / served requests
    double rowHitRate = 0.0;   ///< device row-buffer hit rate
    /** Fraction of demand writes that landed in M2 (Sec. 5.2). */
    double m2WriteFraction = 0.0;
    bool completed = false;
};

/** Multi-program run with slowdown-based metrics attached. */
struct MultiMetrics
{
    RunResult run;
    std::vector<double> aloneIpc;
    std::vector<double> slowdown;
    double weightedSpeedup = 0.0;
    double maxSlowdown = 0.0;
    double efficiency = 0.0; ///< requests / joule
};

/**
 * Derive the RNG seed of one experiment job from its identity.
 *
 * The derivation is a pure hash — results are bit-identical no
 * matter which thread runs the job or in which order jobs finish,
 * which is what makes the parallel runner's `--jobs 1` vs
 * `--jobs N` outputs comparable (tests/test_parallel_runner.cc).
 *
 * @param base Base seed (the experiment family's seed).
 * @param policy Policy name.
 * @param mix Workload-mix label (workload name, or program name
 *        for stand-alone runs).
 * @param sweep_point Index of the sweep point, 0 if none.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::string_view policy,
                         std::string_view mix,
                         std::uint64_t sweep_point = 0);

/**
 * Canonical identity key of one run:
 * "<configFingerprint>|<label>|<policy>|<p0>|...|<seed>".
 *
 * The DetSan journal keys digests with it (plus telemetry/scenario
 * suffixes) and the sweep checkpoint (sim::SweepDriver) journals
 * completed runs under it verbatim, so a journaled sweep run and
 * its determinism digests name exactly the same thing.
 */
std::string runIdentityKey(const SystemConfig &cfg,
                           double footprint_scale,
                           const std::string &label,
                           const std::string &policy,
                           const std::vector<std::string> &programs,
                           std::uint64_t seed_base);

/**
 * Process-wide, thread-safe memoizing cache for stand-alone
 * (IPC_SP) reference runs.
 *
 * Keys include the config fingerprint, policy, program and seed.
 * Concurrent requests for the same key block on a shared future
 * while the first requester computes, so each reference run
 * happens exactly once per process regardless of how many
 * experiment jobs (or threads) need it.
 */
class AloneIpcCache
{
  public:
    /**
     * @return the cached value for `key`, computing it via
     *         `compute` (in the calling thread) on a miss.
     */
    double getOrCompute(const std::string &key,
                        const std::function<double()> &compute);

    /** Drop all entries. */
    void clear();

    /** @return number of cached reference runs. */
    std::size_t size() const;

    /** The process-wide instance shared by all runners. */
    static AloneIpcCache &global();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::shared_future<double>> map_;
};

/** The harness. */
class ExperimentRunner
{
  public:
    /**
     * @param base Base system configuration used for every run.
     * @param footprint_scale Scale of Table 9 footprints (matches
     *        the capacity scaling of `base`).
     * @param cache Stand-alone reference-run cache to share;
     *        defaults to the process-wide cache so every runner in
     *        a binary reuses the same IPC_SP runs.
     */
    explicit ExperimentRunner(
        const SystemConfig &base,
        double footprint_scale = trace::defaultScale,
        AloneIpcCache *cache = nullptr)
        : base_(base), footprintScale_(footprint_scale),
          cache_(cache ? cache : &AloneIpcCache::global())
    {
    }

    /** @return the base configuration (mutable for sweeps). */
    SystemConfig &config() { return base_; }

    /**
     * Run a set of programs under a policy.
     *
     * @param policy Policy name (see System).
     * @param programs Table 9 benchmark names, one per core.
     * @param seed_base Base RNG seed (slot index is mixed in).
     * @param label Telemetry label; when non-empty and telemetry is
     *        enabled (TelemetryConfig::global()), the run attaches a
     *        RunTelemetry bundle named "<label>_<policy>".
     *        Stand-alone reference runs pass no label and always run
     *        without telemetry.  Telemetry never changes results.
     */
    RunResult run(const std::string &policy,
                  const std::vector<std::string> &programs,
                  std::uint64_t seed_base = 1,
                  const std::string &label = "");

    /**
     * Stand-alone IPC of a program under a policy on the base
     * system.  Memoized in the shared AloneIpcCache (keyed by
     * config fingerprint + policy + program + seed), so bench
     * binaries and parallel jobs never recompute a reference run.
     */
    double aloneIpc(const std::string &policy,
                    const std::string &program,
                    std::uint64_t seed_base = 1);

    /** Run a Table 10 workload and attach slowdown metrics. */
    MultiMetrics runMulti(const std::string &policy,
                          const WorkloadSpec &workload);

    /**
     * As above, with an explicit seed for the multi-program run
     * (the stand-alone references keep their own fixed seeds so
     * they stay shareable across mixes and sweep points).
     */
    MultiMetrics runMulti(const std::string &policy,
                          const WorkloadSpec &workload,
                          std::uint64_t seed_base);

    /** Clear the shared stand-alone IPC cache. */
    void clearCache() { cache_->clear(); }

    /** @return the shared reference-run cache. */
    AloneIpcCache &cache() { return *cache_; }

    /**
     * @return instruction quota from the PROFESS_INSTR environment
     *         variable, or `def` when unset.
     */
    static std::uint64_t instrFromEnv(std::uint64_t def);

  private:
    SystemConfig base_;
    double footprintScale_;
    AloneIpcCache *cache_;
};

/** Format a ratio as "+12.3%" / "-4.5%" (reporting helper). */
std::string percentDelta(double ratio);

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_EXPERIMENT_HH
