/**
 * @file
 * Parallel experiment runner (the experiment layer's scaling
 * substrate).
 *
 * Every figure and table in bench/figures.cc regenerates its
 * results from independent simulation jobs (workload mixes x
 * policies x sweep points).  The ParallelRunner fans those jobs
 * across a work-stealing thread pool while guaranteeing *bit-identical*
 * results for any worker count:
 *
 *  - each job's RNG seed is derived purely from its identity via
 *    deriveSeed(base, policy, mix, sweep_point), never from the
 *    executing thread or completion order;
 *  - each job simulates in a private System instance;
 *  - stand-alone IPC_SP reference runs are memoized in the shared
 *    AloneIpcCache, computed exactly once per process with
 *    deterministic per-(config, policy, program) seeds;
 *  - results land in pre-assigned slots of the output vector, so
 *    callers iterate them in submission order.
 *
 * The worker count comes from `--jobs N` / `PROFESS_JOBS`
 * (default: hardware_concurrency); `--jobs 1` runs every job
 * inline in the calling thread — the old serial path.
 */

#ifndef PROFESS_SIM_PARALLEL_RUNNER_HH
#define PROFESS_SIM_PARALLEL_RUNNER_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace profess
{

namespace sim
{

/** One independent experiment job. */
struct RunJob
{
    SystemConfig cfg;
    std::string policy;
    std::vector<std::string> programs;
    /**
     * Workload-mix label: seeds the job (with policy and
     * sweepPoint) and names it in progress output.  Defaults to
     * the '+'-joined program list when empty.
     */
    std::string label;
    std::uint64_t sweepPoint = 0;
    /** Also compute slowdown metrics (stand-alone references). */
    bool slowdowns = false;
    /** Base seed; the job seed is derived from it (see deriveSeed),
     *  unless `seed` pins one explicitly. */
    std::uint64_t baseSeed = 1;
    /** Explicit seed override; 0 = derive (the normal case). */
    std::uint64_t seed = 0;
    double footprintScale = trace::defaultScale;
};

/** Convenience constructors for the common job shapes. */
RunJob multiJob(const SystemConfig &cfg, const std::string &policy,
                const WorkloadSpec &workload,
                std::uint64_t sweep_point = 0);
RunJob singleJob(const SystemConfig &cfg, const std::string &policy,
                 const std::string &program,
                 std::uint64_t sweep_point = 0);

/** The runner. */
class ParallelRunner
{
  public:
    /**
     * @param jobs Worker count; 0 = `jobsFromEnv()`.
     * @param cache Reference-run cache; nullptr = process-wide.
     */
    explicit ParallelRunner(unsigned jobs = 0,
                            AloneIpcCache *cache = nullptr);

    /** @return the worker count in effect. */
    unsigned jobs() const { return jobs_; }

    /** Enable/disable per-job progress lines on stderr. */
    void setProgress(bool on) { progress_ = on; }

    /**
     * Run a batch of jobs and return their metrics in submission
     * order.  MultiMetrics beyond `run` are filled only for jobs
     * with `slowdowns` set.
     */
    std::vector<MultiMetrics> run(const std::vector<RunJob> &batch);

    /** Run one job (serial helper; same seeding as batches). */
    MultiMetrics runOne(const RunJob &job);

    /**
     * Generic escape hatch: invoke `fn(i)` for i in [0, n) on the
     * pool.  `fn` must confine writes to per-index state.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /**
     * Worker count from the environment: PROFESS_JOBS if set (>= 1),
     * else `std::thread::hardware_concurrency()`.
     */
    static unsigned jobsFromEnv();

    /**
     * Worker count from `--jobs N` / `--jobs=N` / `-j N` on the
     * command line, falling back to `jobsFromEnv()`.  Used by every
     * bench binary.
     */
    static unsigned jobsFromArgs(int argc, char **argv);

  private:
    /** Progress-aware wrapper around one job. */
    MultiMetrics timedJob(const RunJob &job, std::size_t index,
                          std::size_t total);

    unsigned jobs_;
    AloneIpcCache *cache_;
    bool progress_;
    std::atomic<std::size_t> done_{0}; ///< progress numerator
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_PARALLEL_RUNNER_HH
