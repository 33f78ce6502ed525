/**
 * @file
 * Deterministic fault-injection and scenario-intervention engine.
 *
 * ScenarioSchedule   - a declarative list of tick-scheduled
 *                      interventions: transient M2 write-latency
 *                      spikes, bank-busy windows, swap-abort windows
 *                      (with bounded retry/backoff in the hybrid
 *                      controller), RSM factor pins, MDM decision
 *                      pins, and quiesce-point audit requests.
 *                      Built programmatically or parsed from a
 *                      config file (one `key=value ...` line per
 *                      intervention; see fromFile()).
 * ScenarioConfig     - process-wide switchboard mirroring
 *                      TelemetryConfig: filled from PROFESS_SCENARIO
 *                      and/or `--scenario FILE`.  Like telemetry it
 *                      stays entirely outside SystemConfig, so
 *                      loading a scenario never changes a config
 *                      fingerprint or a derived seed; the experiment
 *                      layer mixes the schedule fingerprint into its
 *                      reference-run cache keys instead.
 * ScenarioController - one per System run.  attach() arms every
 *                      intervention as an absolute-tick event on the
 *                      system's queue and installs itself as the
 *                      controller's FaultInjector.  All randomness
 *                      (abort draws) comes from a private PCG32
 *                      stream seeded via sim::deriveSeed from the
 *                      job identity, so results are bit-identical at
 *                      any `--jobs N`.  Every injected, retried,
 *                      degraded or deferred event is counted in a
 *                      StatSet and mirrored 1:1 into the decision
 *                      trace (TraceKind::ScenarioEvent), so counters
 *                      and trace totals always reconcile exactly
 *                      (tests/test_scenario.cc).
 *
 * Off mode: when no scenario is loaded nothing is constructed and
 * the only hot-path residue is the controller's predicted-not-taken
 * null check of its FaultInjector pointer at swap completion — the
 * same ≤2% overhead discipline as telemetry (DESIGN.md Sec. 4f).
 */

#ifndef PROFESS_SIM_SCENARIO_HH
#define PROFESS_SIM_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "hybrid/hybrid_controller.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
class DecisionTraceSink;
} // namespace telemetry

namespace sim
{

class System;

/** What one scheduled intervention does. */
enum class InterventionKind : unsigned
{
    WriteSpike = 0, ///< scale M2 write recovery for a window
    BankBusy,       ///< hold a module's banks busy for a window
    SwapAbort,      ///< abort completing swaps with a probability
    PinRsm,         ///< pin a program's SF_A/SF_B
    UnpinRsm,       ///< release a pinned program
    PinMdm,         ///< force every MDM decision
    UnpinMdm,       ///< release the MDM decision pin
    QuiesceAudit,   ///< run cross-component audits once quiescent
    NumKinds
};

/** @return short stable name of an intervention kind. */
const char *interventionKindName(InterventionKind k);

/** One tick-scheduled intervention (fields used depend on kind). */
struct Intervention
{
    Tick at = 0;                    ///< absolute firing tick
    InterventionKind kind = InterventionKind::QuiesceAudit;
    Tick duration = 0;              ///< window length (0 = rest of run)
    double scale = 1.0;             ///< WriteSpike tWR multiplier
    double probability = 0.0;       ///< SwapAbort per-swap chance
    int channel = -1;               ///< target channel (-1 = all)
    int program = -1;               ///< Pin/UnpinRsm (-1 = all)
    double sfA = 1.0, sfB = 1.0;    ///< PinRsm factors
    bool decisionSwap = true;       ///< PinMdm: force Swap vs NoSwap
    unsigned maxRetries = 3;        ///< SwapAbort retry bound
    Cycles backoff = 256;           ///< SwapAbort base retry backoff
};

/** Declarative intervention schedule (builder API + file parser). */
class ScenarioSchedule
{
  public:
    /** Append one fully specified intervention. */
    ScenarioSchedule &add(const Intervention &iv);

    /** M2 write-recovery spike of `scale`x for `duration` ticks. */
    ScenarioSchedule &writeSpike(Tick at, Tick duration, double scale,
                                 int channel = -1);

    /** Hold every M2 bank of the target channel(s) busy. */
    ScenarioSchedule &bankBusy(Tick at, Tick duration,
                               int channel = -1);

    /** Abort completing swaps with `probability` inside the window;
     *  aborted swaps retry up to `max_retries` times with
     *  exponential backoff from `backoff` ticks. */
    ScenarioSchedule &swapAbortWindow(Tick at, Tick duration,
                                      double probability,
                                      unsigned max_retries = 3,
                                      Cycles backoff = 256);

    /** Pin a program's slowdown factors (-1 = every program). */
    ScenarioSchedule &pinRsmFactors(Tick at, int program, double sf_a,
                                    double sf_b);

    /** Release pinned factors (-1 = every program). */
    ScenarioSchedule &unpinRsmFactors(Tick at, int program = -1);

    /** Force every MDM decision to Swap (true) or NoSwap. */
    ScenarioSchedule &pinMdmDecision(Tick at, bool swap);

    /** Release the MDM decision pin. */
    ScenarioSchedule &unpinMdmDecision(Tick at);

    /** Request a cross-component audit at the next quiesce point at
     *  or after `at`. */
    ScenarioSchedule &quiesceAudit(Tick at);

    /** @return true when no interventions are scheduled. */
    bool empty() const { return ivs_.empty(); }

    /** @return the interventions, in insertion order. */
    const std::vector<Intervention> &interventions() const
    {
        return ivs_;
    }

    /**
     * Order-sensitive hash of every intervention field; mixed into
     * reference-run cache keys so runs under different schedules can
     * never alias (0 only for the empty schedule).
     */
    std::uint64_t fingerprint() const;

    /**
     * Parse a schedule file: one intervention per line as
     * whitespace-separated `key=value` tokens ('#' starts a
     * comment).  Keys: at, kind (write_spike, bank_busy, swap_abort,
     * pin_rsm, unpin_rsm, pin_mdm, unpin_mdm, quiesce_audit),
     * duration, scale, probability, channel, program, sf_a, sf_b,
     * decision (swap|noswap), max_retries, backoff.  channel and
     * program are integers (-1 = all).  Fatal on any malformed line,
     * unknown key or kind, value outside its field's type, or
     * unreadable file.
     */
    static ScenarioSchedule fromFile(const std::string &path);

  private:
    std::vector<Intervention> ivs_;
};

/** Process-wide scenario switchboard (see file comment). */
struct ScenarioConfig
{
    std::string file;          ///< schedule path ("" = programmatic)
    ScenarioSchedule schedule; ///< in force when loaded()

    /** @return true when a schedule is in force. */
    bool loaded() const { return active; }

    /** Read PROFESS_SCENARIO and parse the schedule it names. */
    void initFromEnv();

    /**
     * Read the environment, then strip and apply `--scenario FILE`
     * (also `--scenario=FILE`) from argv, compacting it in place.
     */
    void initFromArgs(int &argc, char **argv);

    /** Install a schedule directly (tests). */
    void
    setSchedule(ScenarioSchedule s)
    {
        schedule = std::move(s);
        file.clear();
        active = true;
    }

    /** Drop any loaded schedule (tests). */
    void
    clear()
    {
        schedule = ScenarioSchedule{};
        file.clear();
        active = false;
    }

    /** @return schedule fingerprint, 0 when nothing is loaded. */
    std::uint64_t
    fingerprint() const
    {
        return active ? schedule.fingerprint() : 0;
    }

    /** The process-wide instance used by the experiment layer. */
    static ScenarioConfig &global();

    bool active = false;
};

/**
 * The intervention engine of one run (see file comment).  Construct
 * with the schedule and a deriveSeed()-style seed, attach() to the
 * System before run(), and keep it alive for the whole run.
 */
class ScenarioController : public hybrid::FaultInjector
{
  public:
    /** Trace `detail` codes of scenario events (stable). */
    enum class EventCode : unsigned
    {
        WriteSpikeBegin = 0,
        WriteSpikeEnd,
        BankBusy,
        AbortWindowBegin,
        AbortWindowEnd,
        RsmPin,
        RsmUnpin,
        MdmPin,
        MdmUnpin,
        PinUnsupported, ///< pin on a policy without that mechanism
        QuiesceAuditRun,
        QuiesceDeferred,
        QuiesceGiveup,
        SwapAbortInjected,
        SwapRetry,
        SwapDegraded,
        BankBusyRearm, ///< periodic re-bump within a busy window
        NumCodes
    };

    /**
     * @param schedule Interventions to arm (copied).
     * @param seed Derived job seed (sim::deriveSeed); the abort
     *        draws come from a private stream of this seed.
     */
    ScenarioController(const ScenarioSchedule &schedule,
                       std::uint64_t seed);

    /**
     * Wire into a freshly built system: install the fault-injection
     * hook on the hybrid controller and schedule every intervention
     * at its absolute tick.  Call once, before System::run().  The
     * controller must outlive the run.
     */
    void attach(System &sys);

    // hybrid::FaultInjector
    bool swapAborts(std::uint64_t group, Tick now) override;
    unsigned swapMaxRetries() const override
    {
        return abortMaxRetries_;
    }
    Cycles swapRetryBackoff() const override { return abortBackoff_; }
    void noteSwapRetry(std::uint64_t group, Tick now) override;
    void noteSwapDegraded(std::uint64_t group, Tick now) override;

    /** Per-code event counters (never reset; warm-up immune). */
    const StatSet &stats() const { return stats_; }

    /** @return one event counter by name ("swap_abort_injected"). */
    std::uint64_t
    counter(const std::string &name) const
    {
        return stats_.counter(name);
    }

    /**
     * @return total scenario events across every counter; equals
     *         the sink's kindTotal(TraceKind::ScenarioEvent) exactly
     *         whenever a sink was attached before the run.
     */
    std::uint64_t eventTotal() const;

    /** Mirror every event into `sink` (null = off). */
    void
    setTraceSink(telemetry::DecisionTraceSink *sink)
    {
        trace_ = sink;
    }

    /** Register the event counters under `prefix` ("scenario"). */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix);

  private:
    /**
     * Bank-busy windows are enforced by bumping bank ready times,
     * but swaps overwrite those times to the swap's end — a single
     * bump therefore under-models a sustained window.  Re-bump
     * every this many ticks until the window closes (event-queue
     * local, so jobs 1-vs-N determinism is preserved).
     */
    static constexpr Cycles bankBusyRearmPeriod = 256;

    /** Event counter names, indexed by EventCode. */
    static constexpr const char
        *eventNames[static_cast<unsigned>(EventCode::NumCodes)] = {
            "write_spike_begin", "write_spike_end", "bank_busy",
            "abort_window_begin", "abort_window_end", "rsm_pin",
            "rsm_unpin", "mdm_pin", "mdm_unpin", "pin_unsupported",
            "quiesce_audit", "quiesce_deferred", "quiesce_giveup",
            "swap_abort_injected", "swap_retry", "swap_degraded",
            "bank_busy_rearm"};

    void fire(const Intervention &iv);
    void rearmBankBusy(int channel, Tick until);
    void runQuiesceAudit(const Intervention &iv, unsigned deferrals);
    void note(EventCode code, std::uint64_t group, Tick now,
              double a = 0.0, double b = 0.0);

    ScenarioSchedule schedule_;
    Rng rng_;
    System *sys_ = nullptr;
    EventQueue *eq_ = nullptr;

    // Active swap-abort window (the most recent one wins).
    Tick abortWindowEnd_ = 0;
    double abortProbability_ = 0.0;
    unsigned abortMaxRetries_ = 3;
    Cycles abortBackoff_ = 256;

    StatSet stats_{eventNames};
    telemetry::DecisionTraceSink *trace_ = nullptr;
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_SCENARIO_HH
