/**
 * @file
 * Per-run telemetry bundle and its process-wide configuration.
 *
 * TelemetryConfig - one process-wide switchboard filled from the
 *                   environment (PROFESS_TRACE, PROFESS_TELEMETRY_OUT,
 *                   PROFESS_EPOCH_TICKS) and/or the command line
 *                   (--trace, --telemetry-out DIR, --epoch-ticks N).
 *                   Telemetry stays entirely outside SystemConfig so
 *                   enabling it can never change a config fingerprint
 *                   or a derived seed.
 * RunTelemetry    - everything one labelled run owns: the stat
 *                   registry, the decision/chrome trace sinks, the
 *                   epoch sampler and the hot-path timer slots.  When
 *                   an output directory is configured it materializes
 *                   DIR/<label>/{manifest.json, stats.json,
 *                   epochs.jsonl, decisions.jsonl, trace.json}.
 *
 * Attachment point: System::attachTelemetry() registers every
 * component and forwards the sinks; ExperimentRunner::run() creates
 * the bundle for labelled runs only (stand-alone IPC_SP reference
 * runs have no label and always run clean).
 *
 * The fault-injection subsystem (src/sim/scenario.hh) mirrors this
 * pattern: ScenarioConfig is the PROFESS_SCENARIO / --scenario FILE
 * switchboard, and ExperimentRunner::run() registers scenario event
 * counters and trace records into this bundle when both are active.
 */

#ifndef PROFESS_SIM_RUN_TELEMETRY_HH
#define PROFESS_SIM_RUN_TELEMETRY_HH

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/openmetrics.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"
#include "common/types.hh"
#include "sim/config_fields.hh"

namespace profess
{

class EventQueue;

namespace core
{
class Rsm;
} // namespace core

namespace telemetry
{
class LatencyAttribution;
} // namespace telemetry

namespace sim
{

struct SystemConfig;

/** Process-wide telemetry switchboard (see file comment). */
struct TelemetryConfig
{
    bool trace = false;      ///< decision + chrome tracing
    std::string outDir;      ///< run-artifact directory ("" = none)
    Tick epochInterval = 25000; ///< epoch sampler period in ticks
    /** Combined OpenMetrics exposition file collecting every
     *  labelled run of the process ("" = none). */
    std::string metricsOut;

    /** @return true if any telemetry consumer is active. */
    bool
    enabled() const
    {
        return trace || !outDir.empty() || !metricsOut.empty();
    }

    /** Read PROFESS_TRACE / PROFESS_TELEMETRY_OUT /
     *  PROFESS_EPOCH_TICKS / PROFESS_METRICS_OUT. */
    void initFromEnv();

    /**
     * Read the environment, then strip and apply --trace,
     * --telemetry-out DIR, --epoch-ticks N and --metrics-out FILE
     * (also the --opt=value spellings) from argv, compacting it in
     * place.
     */
    void initFromArgs(int &argc, char **argv);

    /** The process-wide instance used by the experiment layer. */
    static TelemetryConfig &global();
};

/** Telemetry state of one labelled run. */
class RunTelemetry
{
  public:
    /**
     * @param cfg Configuration in force (copied).
     * @param label Run identity; becomes the artifact subdirectory
     *        (sanitized) and the manifest label.
     */
    RunTelemetry(const TelemetryConfig &cfg, const std::string &label);
    ~RunTelemetry();

    RunTelemetry(const RunTelemetry &) = delete;
    RunTelemetry &operator=(const RunTelemetry &) = delete;

    /** @return the registry components register into. */
    telemetry::StatRegistry &registry() { return registry_; }

    /** @return decision-trace sink, or null when tracing is off. */
    telemetry::DecisionTraceSink *decisionSink()
    {
        return decision_.get();
    }

    /** @return chrome-trace sink, or null when tracing is off. */
    telemetry::ChromeTraceSink *chromeSink() { return chrome_.get(); }

    /** @return wall-clock slot for the controller access path. */
    telemetry::TimerSlot *accessTimer() { return &accessSlot_; }

    /** @return wall-clock slot for the channel scheduler. */
    telemetry::TimerSlot *schedulerTimer() { return &schedSlot_; }

    /**
     * Create (first call) and return the latency-attribution table
     * for `num_programs`, registered under "latency".  Subsequent
     * calls return the same table.  Call before startSampler() so
     * the derived count/sum probes join the epoch selection.
     */
    telemetry::LatencyAttribution *attribution(unsigned num_programs);

    /**
     * Start the epoch sampler on the event queue (samples every
     * registered entry; opens epochs.jsonl when an output directory
     * is configured).  Call after all components registered.
     */
    void startSampler(EventQueue &eq);

    /** Stop the epoch sampler. */
    void stopSampler();

    /** @return the sampler, or null before startSampler(). */
    telemetry::EpochSampler *sampler() { return sampler_.get(); }

    /** @return the artifact directory ("" when none). */
    const std::string &directory() const { return dir_; }

    /** @return the run label. */
    const std::string &label() const { return label_; }

    /**
     * Write the end-of-run artifacts: manifest.json, stats.json,
     * decisions.jsonl and trace.json (no-op without an output
     * directory).  Wall-clock and peak RSS are measured here.
     */
    void finish(const std::string &policy, const std::string &workload,
                std::uint64_t seed, const std::string &config_json,
                bool completed);

  private:
    TelemetryConfig cfg_;
    std::string label_;
    std::string dir_; ///< outDir/<sanitized label>, "" when none

    telemetry::StatRegistry registry_;
    std::unique_ptr<telemetry::DecisionTraceSink> decision_;
    std::unique_ptr<telemetry::ChromeTraceSink> chrome_;
    std::unique_ptr<telemetry::EpochSampler> sampler_;
    std::unique_ptr<telemetry::LatencyAttribution> attr_;
    telemetry::TimerSlot accessSlot_{};
    telemetry::TimerSlot schedSlot_{};

    std::FILE *epochsFile_ = nullptr;
    std::chrono::steady_clock::time_point wallStart_;
    std::string startedIso_;
};

/**
 * Process-wide collector for the --metrics-out exposition file.
 *
 * Every labelled run's registry is snapshotted at finish().  Each
 * snapshot is journaled immediately as a durable per-run shard
 * under shardDir(path) — O(1) work per run — and kept in memory;
 * the combined exposition is produced once, by flush() (armed as
 * an atexit hook on the global instance) or by mergeShards(),
 * instead of being rewritten after every run (the old O(runs²)
 * path).  Runs are always emitted sorted by label, so the final
 * exposition is identical no matter in which order parallel
 * workers finish (--jobs N determinism, tests/test_telemetry.cc).
 * A repeated run label replaces the earlier snapshot (and its
 * shard), keeping file and memory consistent.
 */
class MetricsCollector
{
  public:
    /** Record one run snapshot: write its shard, keep it for
     *  flush().  Thread-safe. */
    void record(const std::string &path,
                telemetry::MetricsSnapshot snap);

    /**
     * Write every recorded path's combined exposition from the
     * in-memory snapshots.  Idempotent; called automatically at
     * process exit for the global instance.  Tests (or anything
     * reading the file mid-process) call it explicitly.
     */
    void flush();

    /**
     * Rebuild `path` (crash-atomically) from the on-disk shards
     * under shardDir(path) — including shards written by an
     * earlier, killed process — sorted by run label, and drop any
     * in-memory snapshots for `path` so a later flush() cannot
     * clobber the merged result.  Byte-identical to flush() when
     * the shards and the in-memory state agree.
     */
    void mergeShards(const std::string &path);

    /** @return the shard directory of an exposition path. */
    static std::string shardDir(const std::string &path);

    /** @return the shard file name of a run label (sanitized label
     *  plus a hash of the exact label, so distinct labels never
     *  collide). */
    static std::string shardFileName(const std::string &run_label);

    /** @return snapshots held in memory (all paths). */
    std::size_t size() const;

    /** Drop all snapshots (tests running several batches). */
    void clear();

    /** The process-wide instance. */
    static MetricsCollector &global();

  private:
    mutable std::mutex mu_;
    /** path -> (run label -> snapshot); both map orders are the
     *  deterministic output orders. */
    std::map<std::string,
             std::map<std::string, telemetry::MetricsSnapshot>>
        byPath_;
    bool exitFlushArmed_ = false;
};

/**
 * Register the per-epoch fairness gauges derived from RSM's
 * slowdown factors (Sec. 3.1): per-program
 * "fairness.p<i>.slowdown" (max of SF_A and SF_B), plus
 * "fairness.weighted_speedup" (sum of 1/slowdown),
 * "fairness.max_slowdown" and "fairness.unfairness"
 * (max-over-min slowdown ratio).  Pure probes over RSM state:
 * sampling them never perturbs the run.
 */
void registerFairnessGauges(telemetry::StatRegistry &registry,
                            const core::Rsm &rsm,
                            unsigned num_programs);

/** Filesystem-safe form of a run label ([A-Za-z0-9._-] kept). */
std::string sanitizeLabel(const std::string &label);

/** mkdir -p (fatal on failure); shared by telemetry and sweep. */
void makeDirs(const std::string &path);

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_RUN_TELEMETRY_HH
