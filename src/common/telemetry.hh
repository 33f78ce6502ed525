/**
 * @file
 * Simulation observability layer (gem5-style stat dumps plus
 * time-series sampling and wall-clock profiling).
 *
 * StatRegistry  - hierarchical registry of component statistics.
 *                 Components register their StatSet (or individual
 *                 probe lambdas) under a stable dotted prefix
 *                 ("hybrid.ch0.stc"); the registry dumps everything
 *                 uniformly as JSON.
 * EpochSampler  - scheduled on the event queue; every N ticks it
 *                 snapshots a selected subset of probes into an
 *                 in-memory ring and (optionally) appends a JSONL
 *                 line, producing per-run time-series of the paper's
 *                 dynamic quantities (SF_A/SF_B, swap counters, STC
 *                 hit rate, queue depths).
 * TimerSlot /   - wall-clock profiling of host-side hot paths.  A
 * ScopedTimer     null slot pointer compiles the instrumentation
 *                 down to one predictable branch; an active slot
 *                 accumulates nanoseconds + call counts.
 * RunManifest   - reproducibility record of one run (config
 *                 fingerprint inputs, seed, git sha, wall-clock,
 *                 peak RSS) written as manifest.json.
 *
 * Everything here is off by default and allocation-free on the
 * simulation hot path when off; see DESIGN.md Sec. 4d.
 */

#ifndef PROFESS_COMMON_TELEMETRY_HH
#define PROFESS_COMMON_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/text_writer.hh"
#include "common/types.hh"

#if PROFESS_DETSAN
#include "common/detsan.hh"
#endif

/** Branch-prediction hint for the ~always-off telemetry checks. */
#ifndef PROFESS_UNLIKELY
#define PROFESS_UNLIKELY(x) __builtin_expect(!!(x), 0)
#endif

namespace profess
{

class EventQueue;

namespace telemetry
{

/**
 * A named source of scalar statistics: either a live pointer into a
 * component's StatSet or a probe lambda computing a derived value
 * (hit rates, SF factors) on demand.
 */
class StatRegistry
{
  public:
    /** One resolvable statistic. */
    struct Entry
    {
        std::string name;            ///< full dotted name
        bool isCounter = false;      ///< integer counter vs value
        const std::uint64_t *counter = nullptr;
        std::function<double()> probe; ///< used when counter==nullptr
    };

    /** One registered distribution (see addHistogram). */
    struct HistogramEntry
    {
        std::string name;            ///< full dotted name
        const Histogram *histogram = nullptr;
    };

    /**
     * Register every declared counter of a StatSet under a prefix.
     *
     * The StatSet must outlive the registry.  Its names are fixed at
     * construction, so every counter is exported, zero or not.
     * Names become "<prefix>.<counter>".
     */
    void addSet(const std::string &prefix, const StatSet &set);

    /** Register a single derived-value probe. */
    void addProbe(const std::string &name, std::function<double()> fn);

    /** Register a single live counter reference. */
    void addCounter(const std::string &name, const std::uint64_t &c);

    /**
     * Register a whole distribution under a dotted name.
     *
     * The histogram must outlive the registry.  Besides recording
     * the pointer for bucket-level exporters (OpenMetrics), this
     * derives two scalar probes — "<name>.count" and "<name>.sum" —
     * so epoch sampling and JSON dumps see the distribution's
     * totals without new plumbing.
     */
    void addHistogram(const std::string &name, const Histogram &h);

    /** @return all registered distributions, sorted by name. */
    const std::vector<HistogramEntry> &histograms() const;

    /** @return number of registered entries. */
    std::size_t size() const { return entries_.size(); }

    /** @return all entries, sorted by name. */
    const std::vector<Entry> &entries() const;

    /** @return current value of a registered name (0 if absent). */
    double value(const std::string &name) const;

    /** @return true if `name` is registered. */
    bool contains(const std::string &name) const;

    /** @return all registered dotted names, sorted. */
    std::vector<std::string> names() const;

    /** Dump every statistic as one JSON object. */
    void dumpJson(std::FILE *f) const;

    /** As above, into a writer the caller is already using. */
    void dumpJson(TextWriter &w) const;

  private:
    /** Append after checking name uniqueness (panics on dupes). */
    void addEntry(Entry e);

    mutable std::vector<Entry> entries_;
    mutable std::vector<HistogramEntry> histograms_;
    mutable bool sorted_ = true;
    mutable bool histogramsSorted_ = true;
    std::unordered_set<std::string> names_; ///< O(1) dup detection
};

/**
 * One wall-clock profiling accumulator (see ScopedTimer).
 *
 * Spans are call-sampled: every call is counted, but only one in
 * `samplePeriod` reads the clock, so the instrumented hot paths pay
 * two steady-clock reads on ~1.5% of calls instead of all of them.
 * `ns` accumulates over the sampled calls only; estimatedNs()
 * extrapolates to the full call count.
 */
struct TimerSlot
{
    std::uint64_t ns = 0;      ///< wall ns over the sampled calls
    std::uint64_t calls = 0;   ///< every call through the slot
    std::uint64_t sampled = 0; ///< calls actually timed

    /** Call-sampling period (power of two). */
    static constexpr std::uint64_t samplePeriod = 64;

    /** @return extrapolated total wall ns across all calls. */
    double
    estimatedNs() const
    {
        return sampled == 0 ? 0.0
                            : static_cast<double>(ns) *
                                  static_cast<double>(calls) /
                                  static_cast<double>(sampled);
    }
};

/**
 * RAII wall-clock span.  With a null slot the constructor and
 * destructor are a single predictable branch each; with a live slot
 * every call is counted and one in TimerSlot::samplePeriod is timed.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(TimerSlot *slot) : slot_(slot)
    {
        if (PROFESS_UNLIKELY(slot_ != nullptr)) {
            if ((slot_->calls++ & (TimerSlot::samplePeriod - 1)) !=
                0) {
                slot_ = nullptr; // counted but not timed
            } else {
                start_ = std::chrono::steady_clock::now();
            }
        }
    }

    ~ScopedTimer()
    {
        if (PROFESS_UNLIKELY(slot_ != nullptr)) {
            auto end = std::chrono::steady_clock::now();
            slot_->ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - start_)
                    .count());
            ++slot_->sampled;
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    TimerSlot *slot_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Periodic snapshotting of selected registry entries.
 *
 * The sampler keeps the most recent `ringCapacity` epochs in memory
 * (tests and in-process consumers) and, when given a file, appends
 * one JSONL object per epoch: {"tick":T,"epoch":K,"v":{name:value}}.
 *
 * Scheduling is cooperative: the owner calls start(eq) once running
 * begins and stop() before tearing down; the sampler re-arms itself
 * on the event queue every `intervalTicks`.  Sampling only reads
 * statistics, so enabling it never changes simulation results.
 */
class EpochSampler
{
  public:
    /** One recorded epoch. */
    struct Sample
    {
        Tick tick = 0;
        std::uint64_t epoch = 0;
        std::vector<double> values; ///< parallel to selection()
    };

    /**
     * @param registry Source of values (must outlive the sampler).
     * @param interval_ticks Sampling period in MC ticks (>0).
     * @param ring_capacity Epochs retained in memory (>0).
     */
    EpochSampler(const StatRegistry &registry, Tick interval_ticks,
                 std::size_t ring_capacity = 1024);

    /**
     * Select the names to sample (default: every registered entry).
     * Unknown names are dropped with a warning.  Must be called
     * before start().
     */
    void select(const std::vector<std::string> &names);

    /** @return the selected names, in sampling order. */
    const std::vector<std::string> &selection() const
    {
        return selected_;
    }

    /**
     * Stream epochs to a JSONL file (not owned; may be null).  Lines
     * are buffered: they reach the file on flushOutput(), on the
     * next setOutput() and when the sampler is destroyed, so the
     * file must stay open until one of those.
     */
    void setOutput(std::FILE *f);

    /** Hand buffered epoch lines to the output file. */
    void flushOutput();

    /** Begin sampling on the given event queue. */
    void start(EventQueue &eq);

    /** Stop sampling (pending event becomes a no-op). */
    void stop() { running_ = false; }

    /** Take one snapshot immediately (also used internally). */
    void sampleNow(Tick tick);

    /** @return epochs recorded so far (including overwritten). */
    std::uint64_t epochs() const { return epoch_; }

    /** @return retained samples, oldest first. */
    std::vector<Sample> retained() const;

#if PROFESS_DETSAN
    /** @return chained FNV-1a over every epoch's tick, index and
     *  sampled values — the statistics-trajectory fingerprint. */
    std::uint64_t detsanDigest() const { return detsan_.value(); }
#endif

  private:
    void arm(EventQueue &eq);

    /** Append one entry to the selection. */
    void add(const StatRegistry::Entry &e);

    const StatRegistry &registry_;
    Tick interval_;
    std::size_t capacity_;
    std::vector<std::string> selected_;
    /** Per selected name, its JSON key as written in each epoch
     *  line: `"name":`, with a leading comma after the first. */
    std::vector<std::string> keys_;
    std::vector<const StatRegistry::Entry *> resolved_;
    std::vector<Sample> ring_;
    std::size_t head_ = 0;   ///< next ring slot to write
    std::uint64_t epoch_ = 0;
    bool running_ = false;
    std::unique_ptr<TextWriter> out_;
#if PROFESS_DETSAN
    detsan::Digest detsan_; ///< per-epoch state fingerprint
#endif
};

/** Reproducibility record of one run. */
struct RunManifest
{
    std::string label;       ///< run identity (mix_policy)
    std::string policy;
    std::string workload;
    std::uint64_t seed = 0;
    std::string gitSha;      ///< resolved at collection time
    std::string config;      ///< pre-rendered JSON object
    double wallSeconds = 0.0;
    long peakRssKb = 0;
    std::string startedIso;  ///< UTC wall-clock start

    /** Write as manifest.json-style object. */
    void write(std::FILE *f) const;
};

/** @return HEAD commit sha of `repo_dir` ("" if not resolvable).
 *  Reads .git/HEAD directly; no subprocess. */
std::string gitHeadSha(const std::string &repo_dir = ".");

/** @return current UTC time formatted as ISO-8601. */
std::string utcNowIso();

/** @return ru_maxrss of the process in KiB. */
long peakRssKb();

/** JSON string escaping for the writers above (quotes added). */
std::string jsonQuote(const std::string &s);

} // namespace telemetry

} // namespace profess

#endif // PROFESS_COMMON_TELEMETRY_HH
