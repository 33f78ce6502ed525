/**
 * @file
 * Resumable sweep orchestration (DESIGN.md Sec. 4i).
 *
 * A sweep spec is a declarative key=value file (same token format
 * as ScenarioSchedule::fromFile) describing a grid of experiment
 * jobs — policies x workload mixes x sweep points x seeds:
 *
 *   preset=quad                 # quad | single base config
 *   policy=profess,pom          # repeatable / comma lists
 *   workload=w01,w03            # Table 10 name or "mcf+lbm+..."
 *   seed=1,2                    # base seeds (default 1)
 *   slowdowns=1                 # attach stand-alone references
 *   instr=120000 warmup=60000   # fixed config overrides
 *   sweep=min_benefit:4,8,16    # the (single) swept config axis
 *
 * Config keys are SystemConfig field names from the field table
 * (sim/config_fields.hh); every field can be fixed or swept.  Values
 * are numbers (bools as 0/1) and must fit the field's type.
 *
 * SweepDriver expands the spec deterministically, fans the jobs
 * over ParallelRunner, and checkpoints each completed run as one
 * fsync'd line of an append-only journal (sweep.journal.jsonl in
 * the output directory), keyed by the same
 * configFingerprint|label|policy|programs|seed identity the DetSan
 * journal uses (runIdentityKey).  Per-run metrics are durable the
 * moment a run finishes: MetricsCollector writes one shard per run
 * under metrics.prom.shards/.
 *
 * Crash safety: a sweep killed at any point — SIGKILL mid-run
 * included — resumes by re-running only the jobs missing from the
 * journal (a torn trailing journal line is dropped; its run simply
 * re-executes).  When the last run completes, the driver merges
 * the shards into metrics.prom and rewrites the journal in
 * canonical job order, both crash-atomically, so the finalized
 * journal and exposition are byte-identical to an uninterrupted
 * sweep of the same spec at any --jobs N
 * (tests/test_sweep.cc).
 */

#ifndef PROFESS_SIM_SWEEP_HH
#define PROFESS_SIM_SWEEP_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"

namespace profess
{

namespace sim
{

/** One fixed (config field, value) override from a sweep spec. */
struct ConfigOverride
{
    std::string key;
    double value = 0.0;
};

/** Parsed sweep specification. */
class SweepSpec
{
  public:
    std::string preset = "quad";    ///< quad | single
    std::vector<std::string> policies;
    std::vector<std::string> mixes; ///< Table 10 names or a+b+c+d
    std::vector<std::uint64_t> seeds{1};
    bool slowdowns = true;
    std::vector<ConfigOverride> overrides;
    std::string sweepKey;           ///< "" = no swept axis
    std::vector<double> sweepValues;

    /**
     * Parse a spec file: '#' comments, whitespace-separated
     * key=value tokens (ScenarioSchedule's format).  Fatal with
     * file:line on malformed input, unknown keys, unknown
     * workloads/programs, or a second sweep= axis.
     */
    static SweepSpec fromFile(const std::string &path);

    /** Order-sensitive fingerprint of every field (validates a
     *  journal against the spec that wrote it). */
    std::uint64_t fingerprint() const;

    /** @return sweep points (1 when no axis is swept). */
    std::size_t numSweepPoints() const
    {
        return sweepValues.empty() ? 1 : sweepValues.size();
    }

    /** @return the config of sweep point `point` (0-based):
     *  preset + fixed overrides + the swept value. */
    SystemConfig configAt(std::size_t point) const;

    /** @return programs of one mix entry (resolves Table 10 names,
     *  validates '+'-joined program lists). */
    static std::vector<std::string>
    mixPrograms(const std::string &mix);

    /** @return total runs = points x mixes x policies x seeds. */
    std::size_t numRuns() const;

    /**
     * Expand into jobs in canonical order (sweep point, mix,
     * policy, seed — all innermost-last).  Job labels are the mix
     * name, suffixed "_r<seed>" when several seeds are swept; with
     * a swept axis, sweep points are numbered from 1 so every
     * point's telemetry label carries an "_s<point>" suffix.
     */
    std::vector<RunJob> expand() const;
};

/** One journaled sweep run (a sweep.journal.jsonl line). */
struct SweepRunRecord
{
    std::size_t index = 0;    ///< job index in canonical order
    std::string key;          ///< runIdentityKey of the run
    std::string label;        ///< telemetry label (mix[_r][_s])
    std::string policy;
    std::uint64_t seed = 0;   ///< derived per-job seed
    std::uint64_t sweepPoint = 0;
    std::string shard;        ///< shard file name under .shards/
    bool completed = false;   ///< every core reached its quota
    double weightedSpeedup = 0.0;
    double maxSlowdown = 0.0;
    double efficiency = 0.0;
    std::uint64_t servedTotal = 0;
    std::uint64_t swaps = 0;
};

/** The crash-safe orchestrator (see file comment). */
class SweepDriver
{
  public:
    struct Options
    {
        std::string outDir;      ///< journal + metrics directory
        unsigned jobs = 0;       ///< workers; 0 = jobsFromEnv()
        /** Stop (exit partial) after this many newly executed
         *  runs; 0 = run to completion.  The subset is the first K
         *  pending jobs in canonical order — deterministic, so an
         *  interrupted-then-resumed sweep is reproducible. */
        std::size_t maxRuns = 0;
        bool fresh = false;      ///< discard journal and shards
        bool progress = false;   ///< per-run stderr progress lines
    };

    SweepDriver(const SweepSpec &spec, const Options &opts);
    ~SweepDriver();

    SweepDriver(const SweepDriver &) = delete;
    SweepDriver &operator=(const SweepDriver &) = delete;

    /**
     * Hook invoked after each run is journaled (durable), with
     * (runs journaled so far, total runs).  May fire concurrently
     * from worker threads.  Tests use it to kill the process
     * mid-sweep at a known point.
     */
    void setRunCallback(
        std::function<void(std::size_t, std::size_t)> cb);

    /**
     * Execute the sweep: load/validate the journal, run the
     * pending jobs, journal each completion, and — when every run
     * is journaled — merge the metric shards into metrics.prom and
     * rewrite the journal canonically.
     *
     * @return true when finalized; false when preempted by
     *         Options::maxRuns (resume by running again).
     */
    bool run();

    /** @return total runs of the spec. */
    std::size_t totalRuns() const { return jobs_.size(); }

    /** @return runs skipped because the journal already had them. */
    std::size_t resumedRuns() const { return resumed_; }

    /** @return runs executed by this call/process. */
    std::size_t executedRuns() const { return executed_; }

    /** @return per-job records (valid entries where done). */
    const std::vector<SweepRunRecord> &records() const
    {
        return records_;
    }

    /** @return the journal path (outDir/sweep.journal.jsonl). */
    std::string journalPath() const;

    /** @return the exposition path (outDir/metrics.prom). */
    std::string metricsPath() const;

  private:
    void removeOutputs();
    void loadJournal();
    void appendJournal(const SweepRunRecord &rec);
    void finalize();

    SweepSpec spec_;
    Options opts_;
    std::uint64_t specFp_ = 0; ///< spec + scenario fingerprint
    std::vector<RunJob> jobs_;       ///< canonical order
    std::vector<std::string> keys_;  ///< runIdentityKey per job
    std::vector<std::string> labels_; ///< telemetry label per job
    std::vector<std::string> shards_; ///< shard file name per job
    AloneIpcCache cache_;
    std::vector<SweepRunRecord> records_;
    std::vector<bool> done_;
    std::size_t resumed_ = 0;
    std::size_t executed_ = 0;
    std::function<void(std::size_t, std::size_t)> callback_;
    std::mutex journalMu_;
    std::FILE *journal_ = nullptr;
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_SWEEP_HH
