#include "sim/experiment.hh"

#include <cstdio>

#include "common/config.hh"
#include "common/rng.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"

#if PROFESS_DETSAN
#include "common/detsan.hh"
#endif

namespace profess
{

namespace sim
{

std::uint64_t
deriveSeed(std::uint64_t base, std::string_view policy,
           std::string_view mix, std::uint64_t sweep_point)
{
    std::uint64_t h = mix64(base);
    h = hashCombine(h, policy);
    h = hashCombine(h, mix);
    h = hashCombine(h, sweep_point);
    // Trace sources mix small slot offsets into the seed; keep the
    // derived seed nonzero and well-spread.
    return h == 0 ? 0x9e3779b97f4a7c15ull : h;
}

std::string
runIdentityKey(const SystemConfig &cfg, double footprint_scale,
               const std::string &label, const std::string &policy,
               const std::vector<std::string> &programs,
               std::uint64_t seed_base)
{
    std::string key =
        std::to_string(configFingerprint(cfg, footprint_scale));
    key += '|';
    key += label;
    key += '|';
    key += policy;
    for (const auto &p : programs) {
        key += '|';
        key += p;
    }
    key += '|';
    key += std::to_string(seed_base);
    return key;
}

double
AloneIpcCache::getOrCompute(const std::string &key,
                            const std::function<double()> &compute)
{
    std::shared_future<double> fut;
    std::promise<double> prom;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            owner = true;
            fut = prom.get_future().share();
            map_.emplace(key, fut);
        } else {
            fut = it->second;
        }
    }
    if (owner) {
        // Compute in the requesting thread; concurrent requesters
        // for the same key block on the shared future.
        try {
            prom.set_value(compute());
        } catch (...) {
            prom.set_exception(std::current_exception());
            {
                std::lock_guard<std::mutex> lk(mu_);
                map_.erase(key);
            }
            throw;
        }
    }
    return fut.get();
}

void
AloneIpcCache::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    map_.clear();
}

std::size_t
AloneIpcCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return map_.size();
}

AloneIpcCache &
AloneIpcCache::global()
{
    static AloneIpcCache cache;
    return cache;
}

std::uint64_t
ExperimentRunner::instrFromEnv(std::uint64_t def)
{
    return envInt<std::uint64_t>("PROFESS_INSTR", def, 1);
}

RunResult
ExperimentRunner::run(const std::string &policy,
                      const std::vector<std::string> &programs,
                      std::uint64_t seed_base,
                      const std::string &label)
{
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    sources.reserve(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            programs[i], footprintScale_,
            seed_base + 1009 * (i + 1)));
    }

    System sys(base_, policy, std::move(sources));

    // Scenario interventions, when loaded, attach before telemetry
    // so injected events are visible to the sinks.  The seed is
    // derived purely from the job identity (never from worker id or
    // batch position), keeping fault schedules bit-identical at any
    // --jobs N.
    std::unique_ptr<ScenarioController> scenario;
    const ScenarioConfig &sc = ScenarioConfig::global();
    if (sc.loaded()) {
        std::string joined;
        for (const auto &p : programs)
            joined += (joined.empty() ? "" : "+") + p;
        scenario = std::make_unique<ScenarioController>(
            sc.schedule,
            deriveSeed(seed_base ^ 0x5ce7a810u, policy, joined));
        scenario->attach(sys);
    }

    // Telemetry is observational only: the bundle is attached after
    // construction and never feeds back into the simulation, so
    // labelled runs stay bit-identical to clean ones.
    std::unique_ptr<RunTelemetry> telemetry;
    const TelemetryConfig &tc = TelemetryConfig::global();
    if (!label.empty() && tc.enabled()) {
        telemetry = std::make_unique<RunTelemetry>(
            tc, label + "_" + policy);
        sys.attachTelemetry(*telemetry);
        if (scenario != nullptr) {
            scenario->registerTelemetry(telemetry->registry(),
                                        "scenario");
            scenario->setTraceSink(telemetry->decisionSink());
        }
    }

    RunResult r;
    r.policy = policy;
    r.programs = programs;
    r.completed = sys.run();
    // The extraction-order audit covers every run's queue — serial
    // or parallel-worker — in every build type (the per-extraction
    // state it checks is itself PROFESS_AUDIT-gated).
    sys.eventQueue().auditInvariants();

#if PROFESS_DETSAN
    // Journal this run's digests under its full identity.  If the
    // identical identity runs again in this process (any worker,
    // any --jobs N), the digests must match exactly.  The identity
    // must cover everything that legitimately changes the event
    // stream: an attached epoch sampler schedules its own queue
    // events, and a scenario schedule injects interventions — an
    // instrumented and a bare run of the same workload are
    // different trajectories, not a determinism violation.  The
    // config fingerprint distinguishes sweep points the same way
    // the AloneIpcCache keys do.
    {
        std::string dkey = runIdentityKey(
            base_, footprintScale_, label, policy, programs,
            seed_base);
        dkey += telemetry != nullptr
                    ? "|t" + std::to_string(tc.epochInterval)
                    : "|t-";
        if (sc.loaded())
            dkey += "|s" + std::to_string(sc.fingerprint());
        detsan::RunDigest dig;
        dig.events = sys.eventQueue().executed();
        dig.extraction = sys.eventQueue().detsanDigest();
        if (telemetry != nullptr) {
            if (telemetry->sampler() != nullptr) {
                dig.epochs = telemetry->sampler()->epochs();
                dig.epochState =
                    telemetry->sampler()->detsanDigest();
            }
            // Final stats ride along: a divergence that cancels
            // out of the sampled epochs still flips this digest.
            dig.stats = telemetry->registry().size();
            dig.statState =
                detsan::registryDigest(telemetry->registry());
        }
        detsan::Journal::global().record(dkey, dig);
    }
#endif

    unsigned n = sys.numPrograms();
    std::uint64_t served_m1_total = 0;
    for (unsigned i = 0; i < n; ++i) {
        r.ipc.push_back(sys.core(i).quotaReached()
                            ? sys.core(i).ipcAtQuota()
                            : 0.0);
        const auto &ps =
            sys.controller().programStats(static_cast<ProgramId>(i));
        r.served.push_back(ps.served);
        r.servedM1.push_back(ps.servedFromM1);
        served_m1_total += ps.servedFromM1;
    }
    // All memory-side statistics were reset at the warm-up
    // boundary, so energy integrates over the measurement window.
    r.seconds = sys.measuredSeconds();
    r.joules = sys.memory().totalJoules(r.seconds);
    r.watts = sys.memory().averageWatts(r.seconds);
    r.servedTotal = sys.controller().servedTotal();
    r.swaps = sys.controller().swapCount();
    r.stcHitRate = sys.controller().stcHitRate();
    r.meanReadLatencyNs =
        sys.memory().meanReadLatency() / mem::mcCyclesPerNs;
    r.m1Fraction =
        r.servedTotal > 0
            ? static_cast<double>(served_m1_total) /
                  static_cast<double>(r.servedTotal)
            : 0.0;
    r.swapFraction =
        r.servedTotal > 0
            ? static_cast<double>(r.swaps) /
                  static_cast<double>(r.servedTotal)
            : 0.0;
    std::uint64_t m2_writes = 0;
    for (unsigned c = 0; c < sys.memory().numChannels(); ++c)
        m2_writes +=
            sys.memory().channel(c).energy().m2WriteBursts();
    std::uint64_t demand_writes =
        sys.memory().totalCounter("demand_writes");
    std::uint64_t swap_bursts =
        r.swaps * (sys.controller().layout().blockBytes / 64);
    std::uint64_t m2_demand_writes =
        m2_writes > swap_bursts ? m2_writes - swap_bursts : 0;
    r.m2WriteFraction =
        demand_writes > 0
            ? static_cast<double>(m2_demand_writes) /
                  static_cast<double>(demand_writes)
            : 0.0;
    std::uint64_t row_hits =
        sys.memory().totalCounter("row_hits");
    std::uint64_t row_misses =
        sys.memory().totalCounter("row_misses");
    r.rowHitRate =
        row_hits + row_misses > 0
            ? static_cast<double>(row_hits) /
                  static_cast<double>(row_hits + row_misses)
            : 0.0;

    if (telemetry != nullptr) {
        std::string workload;
        for (const auto &p : programs)
            workload += (workload.empty() ? "" : "+") + p;
        telemetry->finish(policy, workload, seed_base,
                          configJson(base_), r.completed);
    }
    return r;
}

double
ExperimentRunner::aloneIpc(const std::string &policy,
                           const std::string &program,
                           std::uint64_t seed_base)
{
    // The scenario fingerprint keys the cache too: reference runs
    // executed under a fault schedule must never serve as baselines
    // for scenario-free runs (or for a different schedule).
    char key[192];
    std::snprintf(key, sizeof(key), "%016llx/%016llx/%llu/%s/%s",
                  static_cast<unsigned long long>(
                      configFingerprint(base_, footprintScale_)),
                  static_cast<unsigned long long>(
                      ScenarioConfig::global().fingerprint()),
                  static_cast<unsigned long long>(seed_base),
                  policy.c_str(), program.c_str());
    return cache_->getOrCompute(key, [&]() {
        RunResult r = run(policy, {program}, seed_base);
        fatal_if(!r.completed,
                 "stand-alone run of %s did not complete",
                 program.c_str());
        return r.ipc[0];
    });
}

MultiMetrics
ExperimentRunner::runMulti(const std::string &policy,
                           const WorkloadSpec &workload)
{
    return runMulti(policy, workload, 1);
}

MultiMetrics
ExperimentRunner::runMulti(const std::string &policy,
                           const WorkloadSpec &workload,
                           std::uint64_t seed_base)
{
    std::vector<std::string> programs(workload.programs.begin(),
                                      workload.programs.end());
    MultiMetrics m;
    m.run = run(policy, programs, seed_base, workload.name);
    for (const auto &p : programs)
        m.aloneIpc.push_back(aloneIpc(policy, p));
    m.slowdown = slowdowns(m.aloneIpc, m.run.ipc);
    m.weightedSpeedup = weightedSpeedup(m.slowdown);
    m.maxSlowdown = unfairness(m.slowdown);
    m.efficiency =
        energyEfficiency(m.run.servedTotal, m.run.joules);
    return m;
}

std::string
percentDelta(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%",
                  (ratio - 1.0) * 100.0);
    return buf;
}

} // namespace sim

} // namespace profess
