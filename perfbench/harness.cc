/**
 * @file
 * Benchmark harness for the ProFess simulator (see README.md here).
 *
 * Runs one workload -- a fixed batch of simulation jobs -- as a
 * closed loop on one thread and prints its end-to-end metrics
 * (--trace 0) or its per-layer table (--trace 1).  The last line of
 * stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.
 *
 * Untraced repetitions run the batch through the figure path
 * (sim::ParallelRunner at one worker, stand-alone references
 * included).  Traced repetitions assemble each job from the same
 * public constructors sim::System uses, with timing wrappers at the
 * virtual seams (trace::TraceSource, cpu::MemPort,
 * policy::MigrationPolicy), and drive EventQueue::runOne directly.
 * Both must produce the same per-job result digest.
 *
 * Usage:
 *   profess_perfbench --workload W --seed N --seconds S --trace 0|1
 *                     --pins FILE --tmp DIR [--git-sha SHA]
 *   profess_perfbench --workload W --seed N --print-pins
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common/event.hh"
#include "common/stats.hh"
#include "core/profess.hh"
#include "cpu/core_model.hh"
#include "hybrid/hybrid_controller.hh"
#include "hybrid/layout.hh"
#include "mem/memory_system.hh"
#include "os/page_allocator.hh"
#include "policy/pom.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_telemetry.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @return the process's CPU seconds.  On a KVM guest with
 *  paravirtual steal accounting this excludes time the hypervisor
 *  stole, which wall time includes. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void
die(int code, const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(code);
}

// ---------------------------------------------------------------
// Build and environment guard
// ---------------------------------------------------------------

/** Refuse to time a build or environment that changes or
 *  instruments the work. */
void
guardBuildAndEnv()
{
#if PROFESS_AUDIT
    die(3, "refusing to time a PROFESS_AUDIT build");
#endif
#if PROFESS_DETSAN
    die(3, "refusing to time a PROFESS_DETSAN build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    die(3, "refusing to time a sanitizer build");
#endif
#ifndef __OPTIMIZE__
    die(3, "refusing to time an unoptimized build");
#endif
    // GCC defines no macro for -fsanitize=undefined; the flags the
    // build recorded cover it.
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
        die(3, std::string("refusing to time a sanitizer build, "
                           "flags: ") + PERFBENCH_CXX_FLAGS);
    static const char *const work_changing[] = {
        "PROFESS_SCENARIO",      "PROFESS_TRACE",
        "PROFESS_TELEMETRY_OUT", "PROFESS_METRICS_OUT",
        "PROFESS_INSTR",         "PROFESS_JOBS",
    };
    for (const char *v : work_changing) {
        if (std::getenv(v) != nullptr)
            die(3, std::string("refusing to run with ") + v +
                       " set: it changes or instruments the work");
    }
}

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

struct Workload
{
    const char *name;
    bool quad;                          ///< quad-core Table 10 mixes
    std::vector<const char *> policies; ///< run for every entry
    std::vector<const char *> entries;  ///< mixes or programs
    std::uint64_t quota;                ///< measured instr per core
    std::uint64_t warmup;               ///< warm-up instr per core
    bool telemetry = false;
};

// Run sizes are the figure binaries' PROFESS_QUICK=1 sizes (quad:
// 400K measured + 200K warm-up per core; single: 600K + 200K).  Why
// each workload exists is in README.md.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"quad_fairness", true, {"pom", "profess"},
         {"w09", "w12", "w17"}, 400'000, 200'000},
        {"single_write_swap", false, {"pom"},
         {"lbm", "GemsFDTD", "omnetpp"}, 600'000, 200'000},
        {"single_light", false, {"profess"},
         {"zeusmp", "bwaves", "leslie3d", "libquantum"}, 600'000,
         200'000},
        {"quad_fairness_telemetry", true, {"pom", "profess"},
         {"w09"}, 400'000, 200'000, true},
    };
    return table;
}

const Workload &
findWorkloadDef(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return w;
    }
    die(2, "unknown workload '" + name + "'");
}

sim::SystemConfig
configOf(const Workload &w)
{
    sim::SystemConfig cfg = w.quad ? sim::SystemConfig::quadCore()
                                   : sim::SystemConfig::singleCore();
    cfg.core.instrQuota = w.quota;
    cfg.core.warmupInstr = w.warmup;
    return cfg;
}

std::vector<sim::RunJob>
batchOf(const Workload &w, std::uint64_t seed)
{
    sim::SystemConfig cfg = configOf(w);
    std::vector<sim::RunJob> jobs;
    for (const char *entry : w.entries) {
        for (const char *pol : w.policies) {
            sim::RunJob j;
            if (w.quad) {
                const sim::WorkloadSpec *spec = sim::findWorkload(entry);
                if (spec == nullptr)
                    die(2, std::string("unknown mix ") + entry);
                j = sim::multiJob(cfg, pol, *spec);
            } else {
                j = sim::singleJob(cfg, pol, entry);
            }
            j.baseSeed = seed;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

/** Stand-alone reference runs a batch needs: one per distinct
 *  (policy, program) of its slowdown jobs, as AloneIpcCache keys
 *  them. */
std::set<std::pair<std::string, std::string>>
referencesOf(const std::vector<sim::RunJob> &batch)
{
    std::set<std::pair<std::string, std::string>> refs;
    for (const sim::RunJob &j : batch) {
        if (!j.slowdowns)
            continue;
        for (const std::string &p : j.programs)
            refs.emplace(j.policy, p);
    }
    return refs;
}

/** Simulated instructions the batch requests (quota + warm-up per
 *  core per run, references included). */
double
requestedInstr(const Workload &w, const std::vector<sim::RunJob> &batch)
{
    double cores = 0;
    for (const sim::RunJob &j : batch)
        cores += static_cast<double>(j.programs.size());
    cores += static_cast<double>(referencesOf(batch).size());
    return cores * static_cast<double>(w.quota + w.warmup);
}

std::uint64_t
jobSeed(const sim::RunJob &j)
{
    return sim::deriveSeed(j.baseSeed, j.policy, j.label, j.sweepPoint);
}

/** Reference runs use ExperimentRunner::aloneIpc's fixed base. */
constexpr std::uint64_t referenceSeed = 1;

std::vector<std::unique_ptr<trace::TraceSource>>
sourcesOf(const std::vector<std::string> &programs, std::uint64_t seed)
{
    // Same slot seeding as ExperimentRunner::run.
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            programs[i], trace::defaultScale, seed + 1009 * (i + 1)));
    }
    return sources;
}

// ---------------------------------------------------------------
// Result digest
// ---------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
};

/** Digest of every simulated result field of one job: served,
 *  swaps, per-program IPC bit patterns, energy, weighted speedup
 *  and max slowdown. */
std::uint64_t
digestOf(const sim::MultiMetrics &m)
{
    Fnv f;
    f.mix(static_cast<std::uint64_t>(m.run.ipc.size()));
    for (std::size_t i = 0; i < m.run.ipc.size(); ++i) {
        f.mix(m.run.ipc[i]);
        f.mix(m.run.served[i]);
    }
    f.mix(m.run.swaps);
    f.mix(m.run.joules);
    f.mix(m.weightedSpeedup);
    f.mix(m.maxSlowdown);
    return f.h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jobName(const sim::RunJob &j)
{
    return j.label + "/" + j.policy;
}

/** Pinned digests: (workload, seed, job name) -> digest. */
using Pins = std::map<std::string, std::string>;

std::string
pinKey(const std::string &workload, std::uint64_t seed,
       const std::string &job)
{
    return workload + " " + std::to_string(seed) + " " + job;
}

Pins
loadPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die(2, "cannot read pins file " + path);
    Pins pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, seed, job, dig;
        if (!(ls >> wl >> seed >> job >> dig))
            die(2, "malformed pins line: " + line);
        pins[wl + " " + seed + " " + job] = dig;
    }
    return pins;
}

/** @return true when the job reached its quota and, where a digest
 *  is pinned for it, matches the pin. */
bool
jobPasses(const sim::MultiMetrics &m, std::uint64_t digest,
          const Pins &pins, const std::string &key)
{
    if (!m.run.completed)
        return false;
    auto it = pins.find(key);
    return it == pins.end() || it->second == hex(digest);
}

/**
 * Show that the check catches a one-field perturbation of a real
 * result: each digested field in turn is nudged by one unit (one
 * ulp for doubles) and must fail against the unperturbed pin.
 */
bool
selfTest(const sim::MultiMetrics &real)
{
    const std::string key = "selftest 0 job";
    Pins pins{{key, hex(digestOf(real))}};
    if (!jobPasses(real, digestOf(real), pins, key))
        return false;
    std::vector<void (*)(sim::MultiMetrics &)> nudges = {
        [](sim::MultiMetrics &m) { m.run.served[0] += 1; },
        [](sim::MultiMetrics &m) { m.run.swaps += 1; },
        [](sim::MultiMetrics &m) {
            m.run.ipc.back() = std::nextafter(m.run.ipc.back(), 1e300);
        },
        [](sim::MultiMetrics &m) {
            m.run.joules = std::nextafter(m.run.joules, 1e300);
        },
        [](sim::MultiMetrics &m) {
            m.weightedSpeedup = std::nextafter(m.weightedSpeedup, 1e300);
        },
        [](sim::MultiMetrics &m) {
            m.maxSlowdown = std::nextafter(m.maxSlowdown, 1e300);
        },
    };
    for (auto nudge : nudges) {
        sim::MultiMetrics bad = real;
        nudge(bad);
        if (jobPasses(bad, digestOf(bad), pins, key))
            return false;
    }
    sim::MultiMetrics short_run = real;
    short_run.run.completed = false;
    return !jobPasses(short_run, digestOf(short_run), pins, key);
}

// ---------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------

enum Layer : unsigned
{
    LTrace,
    LOs,
    LHybrid,
    LPolicy,
    LEvent,
    LSetup,
    LTeardown,
    LTelemetry,
    NumLayers
};

/** Nested wall-clock spans; self time = duration minus the part
 *  covered by child spans.  Single-threaded by construction. */
class Spans
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        std::uint64_t inclNs = 0;
        std::uint64_t selfNs = 0;
    };

    void
    begin(Layer l)
    {
        stack_[depth_++] = Frame{l, nowNs(), 0};
    }

    void
    end()
    {
        const Frame f = stack_[--depth_];
        const std::uint64_t d = account(f, nowNs());
        if (depth_ > 0)
            stack_[depth_ - 1].childNs += d;
    }

    /** End the innermost span and begin another of the same layer
     *  at the same instant (one clock read per event boundary, so
     *  back-to-back events leave no uncovered gap). */
    void
    lap()
    {
        Frame &f = stack_[depth_ - 1];
        const std::uint64_t t = nowNs();
        account(f, t);
        f.start = t;
        f.childNs = 0;
    }

    const Totals &operator[](Layer l) const { return totals_[l]; }

    void reset() { *this = Spans{}; }

  private:
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
    }

    struct Frame
    {
        Layer layer;
        std::uint64_t start;
        std::uint64_t childNs;
    };

    /** Close `f` at time `t`; @return its duration. */
    std::uint64_t
    account(const Frame &f, std::uint64_t t)
    {
        const std::uint64_t d = t - f.start;
        Totals &tot = totals_[f.layer];
        ++tot.calls;
        tot.inclNs += d;
        tot.selfNs += d - f.childNs;
        return d;
    }

    Frame stack_[16]{};
    unsigned depth_ = 0;
    Totals totals_[NumLayers]{};
};

Spans spans;

class Span
{
  public:
    explicit Span(Layer l) { spans.begin(l); }
    ~Span() { spans.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
};

/** Decorating source: times TraceSource::next. */
class TimedSource : public trace::TraceSource
{
  public:
    explicit TimedSource(std::unique_ptr<trace::TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    bool
    next(trace::MemAccess &out) override
    {
        Span s(LTrace);
        return inner_->next(out);
    }

    std::uint64_t
    footprintBytes() const override
    {
        return inner_->footprintBytes();
    }

    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
};

/** Forwarding policy: times every decision/notification hook. */
class TimedPolicy : public policy::MigrationPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<policy::MigrationPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    const char *name() const override { return inner_->name(); }
    unsigned writeWeight() const override { return inner_->writeWeight(); }
    bool slowSwap() const override { return inner_->slowSwap(); }
    void setHost(policy::SwapHost *host) override { inner_->setHost(host); }

    policy::Decision
    onM2Access(const policy::AccessInfo &info) override
    {
        Span s(LPolicy);
        ++m2Decisions;
        policy::Decision d = inner_->onM2Access(info);
        swapDecisions += d == policy::Decision::Swap;
        return d;
    }

    void
    onM1Access(const policy::AccessInfo &info) override
    {
        Span s(LPolicy);
        inner_->onM1Access(info);
    }

    void
    onServed(const policy::AccessInfo &info) override
    {
        Span s(LPolicy);
        inner_->onServed(info);
    }

    void
    onStcInsert(std::uint64_t group, hybrid::StcMeta &meta) override
    {
        Span s(LPolicy);
        inner_->onStcInsert(group, meta);
    }

    void
    onStcEvict(std::uint64_t group, const hybrid::StcMeta &meta,
               hybrid::StEntry &entry) override
    {
        Span s(LPolicy);
        inner_->onStcEvict(group, meta, entry);
    }

    void
    onSwapComplete(std::uint64_t group, unsigned promoted_slot,
                   unsigned demoted_slot, ProgramId promoted_owner,
                   ProgramId demoted_owner, bool private_region) override
    {
        Span s(LPolicy);
        inner_->onSwapComplete(group, promoted_slot, demoted_slot,
                               promoted_owner, demoted_owner,
                               private_region);
    }

    Cycles
    periodicInterval() const override
    {
        return inner_->periodicInterval();
    }

    void
    onPeriodic() override
    {
        Span s(LPolicy);
        inner_->onPeriodic();
    }

    void
    registerTelemetry(telemetry::StatRegistry &registry,
                      const std::string &prefix) override
    {
        inner_->registerTelemetry(registry, prefix);
    }

    void
    setTraceSink(telemetry::DecisionTraceSink *sink) override
    {
        inner_->setTraceSink(sink);
    }

    void auditInvariants() const override { inner_->auditInvariants(); }

    policy::MigrationPolicy &inner() { return *inner_; }

    std::uint64_t m2Decisions = 0;
    std::uint64_t swapDecisions = 0;

  private:
    std::unique_ptr<policy::MigrationPolicy> inner_;
};

/**
 * One job assembled as sim::System assembles it (same constructors,
 * same member order, hence the same destruction order), with the
 * timing wrappers at the virtual seams.  Supports the two policies
 * the workloads use.
 */
class TracedSystem : public cpu::MemPort
{
  public:
    TracedSystem(const sim::SystemConfig &cfg, const std::string &pol,
                 std::vector<std::unique_ptr<trace::TraceSource>> sources)
        : cfg_(cfg)
    {
        const auto n = static_cast<unsigned>(sources.size());
        mem::MemorySystemConfig mc;
        mc.numChannels = cfg.numChannels;
        mc.m1BytesPerChannel = cfg.m1BytesPerChannel;
        mc.m2BytesPerChannel = cfg.m2BytesPerChannel;
        mc.m1 = mem::m1Timing();
        mc.m2 = mem::m2Timing(cfg.m2WriteScale);
        memory_ = std::make_unique<mem::MemorySystem>(eq_, mc);
        layout_ = hybrid::HybridLayout::build(
            cfg.m1BytesPerChannel, cfg.m2BytesPerChannel,
            cfg.numChannels, cfg.numRegions, cfg.slotsPerGroup);
        allocator_ = std::make_unique<os::PageAllocator>(
            layout_.numGroups, cfg.slotsPerGroup, cfg.numRegions, n,
            cfg.allocSeed);
        policy_ = std::make_unique<TimedPolicy>(makePolicy(pol, n));
        hybrid::HybridController::Params hp;
        hp.stc = cfg.stc;
        hp.modelStTraffic = cfg.modelStTraffic;
        hp.numPrograms = n;
        hp.statsFoldInterval = cfg.statsFoldInterval;
        controller_ = std::make_unique<hybrid::HybridController>(
            eq_, *memory_, layout_, hp, *policy_, *allocator_);
        for (auto &s : sources)
            sources_.push_back(std::make_unique<TimedSource>(std::move(s)));
        for (unsigned i = 0; i < n; ++i) {
            cores_.push_back(std::make_unique<cpu::CoreModel>(
                eq_, cfg.core, *sources_[i], *this,
                static_cast<ProgramId>(i)));
        }
    }

    void
    issue(ProgramId program, Addr vaddr, bool is_write,
          InlineCallback done) override
    {
        std::uint64_t frame;
        {
            Span s(LOs);
            frame = allocator_->translate(program, vaddr / os::pageBytes);
        }
        Span s(LHybrid);
        controller_->access(program,
                            frame * os::pageBytes + vaddr % os::pageBytes,
                            is_write, std::move(done));
    }

    /** Mirror of sim::System::attachTelemetry. */
    void
    attachTelemetry(sim::RunTelemetry &t)
    {
        telemetry_ = &t;
        telemetry::StatRegistry &reg = t.registry();
        controller_->registerTelemetry(reg, "hybrid");
        telemetry::LatencyAttribution *attr =
            t.attribution(static_cast<unsigned>(cores_.size()));
        for (unsigned c = 0; c < memory_->numChannels(); ++c) {
            mem::Channel &ch = memory_->channel(c);
            ch.registerTelemetry(reg, "mem.ch" + std::to_string(c));
            ch.setSchedulerTimer(t.schedulerTimer());
            ch.setLatencyAttribution(attr);
        }
        allocator_->registerTelemetry(reg, "os.alloc");
        for (unsigned i = 0; i < cores_.size(); ++i)
            cores_[i]->registerTelemetry(reg, "core" + std::to_string(i));
        policy_->setTraceSink(t.decisionSink());
        controller_->setChromeTrace(t.chromeSink());
        controller_->setAccessTimer(t.accessTimer());
        controller_->setLatencyAttribution(attr);
        if (auto *pp = dynamic_cast<core::ProfessPolicy *>(
                &policy_->inner()))
            sim::registerFairnessGauges(
                reg, pp->rsm(), static_cast<unsigned>(cores_.size()));
    }

    /** Mirror of sim::System::run (no tick limit), with every
     *  EventQueue::runOne timed as an event span. */
    bool
    run()
    {
        for (auto &c : cores_) {
            c->setOnWarmup([this]() {
                if (++coresWarm_ == cores_.size()) {
                    controller_->resetStats();
                    for (unsigned i = 0; i < memory_->numChannels(); ++i)
                        memory_->channel(i).resetStats();
                    measureStart_ = eq_.now();
                }
            });
            c->start();
        }
        controller_->startPeriodic();
        if (telemetry_ != nullptr)
            telemetry_->startSampler(eq_);
        {
            // One event span per runOne; the stop check rides in it.
            Span s(LEvent);
            while (eq_.runOne() && !allDone())
                spans.lap();
        }
        controller_->stopPeriodic();
        if (telemetry_ != nullptr)
            telemetry_->stopSampler();
        for (auto &c : cores_)
            c->halt();
        eq_.auditInvariants();
        return allDone();
    }

    /** The RunResult fields ExperimentRunner::run derives. */
    sim::RunResult
    result(const std::string &pol, bool completed) const
    {
        sim::RunResult r;
        r.policy = pol;
        r.completed = completed;
        std::uint64_t served_m1 = 0;
        for (unsigned i = 0; i < cores_.size(); ++i) {
            r.ipc.push_back(cores_[i]->quotaReached()
                                ? cores_[i]->ipcAtQuota()
                                : 0.0);
            const auto &ps =
                controller_->programStats(static_cast<ProgramId>(i));
            r.served.push_back(ps.served);
            r.servedM1.push_back(ps.servedFromM1);
            served_m1 += ps.servedFromM1;
        }
        r.seconds = static_cast<double>(eq_.now() - measureStart_) /
                    (mem::mcCyclesPerNs * 1e9);
        r.joules = memory_->totalJoules(r.seconds);
        r.servedTotal = controller_->servedTotal();
        r.swaps = controller_->swapCount();
        r.stcHitRate = controller_->stcHitRate();
        r.meanReadLatencyNs =
            memory_->meanReadLatency() / mem::mcCyclesPerNs;
        r.m1Fraction = r.servedTotal > 0
                           ? static_cast<double>(served_m1) /
                                 static_cast<double>(r.servedTotal)
                           : 0.0;
        return r;
    }

    const mem::MemorySystem &memory() const { return *memory_; }
    const TimedPolicy &policy() const { return *policy_; }
    const cpu::CoreModel &core(unsigned i) const { return *cores_[i]; }
    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    std::uint64_t executed() const { return eq_.executed(); }
    Tick measuredTicks() const { return eq_.now() - measureStart_; }

  private:
    std::unique_ptr<policy::MigrationPolicy>
    makePolicy(const std::string &name, unsigned n) const
    {
        // The pom and profess branches of sim::System's factory.
        if (name == "profess") {
            core::ProfessPolicy::Params p;
            p.mdm.numPrograms = n;
            p.mdm.minBenefit = cfg_.minBenefit;
            p.rsm.numPrograms = n;
            p.rsm.numRegions = cfg_.numRegions;
            p.rsm.sampleRequests = cfg_.msamp;
            p.rsm.perRegionStats = cfg_.rsmPerRegionStats;
            p.factorThreshold = cfg_.professFactorThreshold;
            p.productThreshold = cfg_.professProductThreshold;
            return std::make_unique<core::ProfessPolicy>(layout_,
                                                         *allocator_, p);
        }
        if (name == "pom") {
            policy::PomPolicy::Params p;
            p.k = cfg_.minBenefit;
            return std::make_unique<policy::PomPolicy>(layout_.numGroups,
                                                       p);
        }
        die(2, "traced run supports pom and profess, not " + name);
    }

    bool
    allDone() const
    {
        for (const auto &c : cores_) {
            if (!c->quotaReached())
                return false;
        }
        return true;
    }

    sim::SystemConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<mem::MemorySystem> memory_;
    hybrid::HybridLayout layout_;
    std::unique_ptr<os::PageAllocator> allocator_;
    std::unique_ptr<TimedPolicy> policy_;
    std::unique_ptr<hybrid::HybridController> controller_;
    std::vector<std::unique_ptr<trace::TraceSource>> sources_;
    std::vector<std::unique_ptr<cpu::CoreModel>> cores_;
    unsigned coresWarm_ = 0;
    Tick measureStart_ = 0;
    sim::RunTelemetry *telemetry_ = nullptr;
};

// ---------------------------------------------------------------
// Repetitions
// ---------------------------------------------------------------

/** Simulated per-layer totals of one traced repetition. */
struct SimTotals
{
    std::uint64_t events = 0;
    std::uint64_t m2Decisions = 0;
    std::uint64_t swapDecisions = 0;
    std::uint64_t served = 0;
    std::uint64_t servedM1 = 0;
    std::uint64_t swaps = 0;
    double stcHitWeighted = 0;
    std::uint64_t demandReads = 0;
    std::uint64_t demandWrites = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    double busBusy = 0;
    double swapBusy = 0;
    double channelTicks = 0;
    double readLatSum = 0;
    std::uint64_t readLatCount = 0;
    std::uint64_t instr = 0;
    std::vector<double> ipcs;
};

struct Rep
{
    double wall = 0;    ///< host wall seconds for the whole batch
    double cpu = 0;     ///< host CPU seconds for the whole batch
    double setup = 0;   ///< host CPU seconds building sources + systems
    double flush = 0;   ///< host seconds in MetricsCollector::flush
    std::uint64_t bytes = 0; ///< telemetry bytes written
    std::size_t references = 0;
    std::vector<sim::MultiMetrics> results;
    std::vector<std::uint64_t> digests;
    SimTotals sim;       ///< traced repetitions only
    Spans spans;         ///< traced repetitions only
};

/** Host CPU seconds to build a run's trace sources and sim::System,
 *  exactly as ExperimentRunner::run builds them. */
double
timeSetup(const sim::SystemConfig &cfg, const std::string &pol,
          const std::vector<std::string> &programs, std::uint64_t seed)
{
    const double c0 = cpuSeconds();
    sim::System sys(cfg, pol, sourcesOf(programs, seed));
    return cpuSeconds() - c0;
}

std::uint64_t
dirBytes(const fs::path &dir)
{
    std::uint64_t n = 0;
    if (!fs::exists(dir))
        return 0;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file())
            n += e.file_size();
    }
    return n;
}

void
configureTelemetry(const Workload &w, const fs::path &tmp)
{
    sim::TelemetryConfig &tc = sim::TelemetryConfig::global();
    tc = sim::TelemetryConfig{};
    if (!w.telemetry)
        return;
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    tc.trace = true;
    tc.outDir = (tmp / "runs").string();
    tc.metricsOut = (tmp / "metrics.prom").string();
}

void
finishTelemetry(const Workload &w, const fs::path &tmp, Rep &rep)
{
    if (!w.telemetry)
        return;
    rep.bytes = dirBytes(tmp);
    sim::MetricsCollector::global().clear();
    fs::remove_all(tmp);
}

/** One untraced repetition through the figure path. */
Rep
untracedRep(const Workload &w, const std::vector<sim::RunJob> &batch,
            const fs::path &tmp)
{
    Rep rep;
    sim::AloneIpcCache::global().clear();
    for (const sim::RunJob &j : batch)
        rep.setup += timeSetup(j.cfg, j.policy, j.programs, jobSeed(j));
    for (const auto &[pol, prog] : referencesOf(batch))
        rep.setup += timeSetup(batch[0].cfg, pol, {prog}, referenceSeed);

    configureTelemetry(w, tmp);
    sim::ParallelRunner runner(1);
    runner.setProgress(false);
    const double c0 = cpuSeconds();
    auto t0 = Clock::now();
    rep.results = runner.run(batch);
    if (w.telemetry) {
        auto f0 = Clock::now();
        sim::MetricsCollector::global().flush();
        rep.flush = secondsSince(f0);
    }
    rep.wall = secondsSince(t0);
    rep.cpu = cpuSeconds() - c0;
    rep.references = sim::AloneIpcCache::global().size();
    finishTelemetry(w, tmp, rep);
    for (const auto &m : rep.results)
        rep.digests.push_back(digestOf(m));
    return rep;
}

void
accumulate(SimTotals &t, const TracedSystem &sys, const sim::RunResult &r)
{
    t.events += sys.executed();
    t.m2Decisions += sys.policy().m2Decisions;
    t.swapDecisions += sys.policy().swapDecisions;
    t.served += r.servedTotal;
    for (std::uint64_t v : r.servedM1)
        t.servedM1 += v;
    t.swaps += r.swaps;
    t.stcHitWeighted += r.stcHitRate * static_cast<double>(r.servedTotal);
    const mem::MemorySystem &mem = sys.memory();
    for (unsigned c = 0; c < mem.numChannels(); ++c) {
        const StatSet &st = mem.channel(c).stats();
        t.demandReads += st.counter("demand_reads");
        t.demandWrites += st.counter("demand_writes");
        t.rowHits += st.counter("row_hits");
        t.rowMisses += st.counter("row_misses");
        t.busBusy += static_cast<double>(st.counter("bus_busy_cycles"));
        t.swapBusy += static_cast<double>(st.counter("swap_busy_cycles"));
        t.channelTicks += static_cast<double>(sys.measuredTicks());
        const RunningStat &lat = mem.channel(c).readLatency();
        t.readLatSum += lat.mean() * static_cast<double>(lat.count());
        t.readLatCount += lat.count();
    }
    for (unsigned i = 0; i < sys.numCores(); ++i) {
        t.instr += sys.core(i).retired();
        t.ipcs.push_back(r.ipc[i]);
    }
}

/** One traced run of a job's programs; returns its RunResult. */
sim::RunResult
tracedRun(const sim::SystemConfig &cfg, const std::string &pol,
          const std::vector<std::string> &programs, std::uint64_t seed,
          const std::string &label, SimTotals &totals)
{
    std::unique_ptr<TracedSystem> sys;
    {
        Span s(LSetup);
        sys = std::make_unique<TracedSystem>(cfg, pol,
                                             sourcesOf(programs, seed));
    }
    // As in ExperimentRunner::run: labelled runs carry telemetry
    // when it is enabled; reference runs never do.
    std::unique_ptr<sim::RunTelemetry> tel;
    const sim::TelemetryConfig &tc = sim::TelemetryConfig::global();
    if (!label.empty() && tc.enabled()) {
        Span s(LTelemetry);
        tel = std::make_unique<sim::RunTelemetry>(tc, label + "_" + pol);
        sys->attachTelemetry(*tel);
    }
    bool completed = sys->run();
    sim::RunResult r = sys->result(pol, completed);
    r.programs = programs;
    accumulate(totals, *sys, r);
    if (tel != nullptr) {
        Span s(LTelemetry);
        std::string workload;
        for (const auto &p : programs)
            workload += (workload.empty() ? "" : "+") + p;
        tel->finish(pol, workload, seed, sim::configJson(cfg), completed);
    }
    {
        Span s(LTeardown);
        tel.reset();
        sys.reset();
    }
    return r;
}

/** One traced repetition of the batch, in the figure path's order
 *  (each job, then its not-yet-computed references). */
Rep
tracedRep(const Workload &w, const std::vector<sim::RunJob> &batch,
          const fs::path &tmp)
{
    Rep rep;
    spans.reset();
    configureTelemetry(w, tmp);
    std::map<std::pair<std::string, std::string>, double> alone;
    auto t0 = Clock::now();
    for (const sim::RunJob &j : batch) {
        sim::MultiMetrics m;
        m.run = tracedRun(j.cfg, j.policy, j.programs, jobSeed(j),
                          j.label, rep.sim);
        if (j.slowdowns) {
            for (const std::string &p : j.programs) {
                auto key = std::make_pair(j.policy, p);
                auto it = alone.find(key);
                if (it == alone.end()) {
                    sim::RunResult ref = tracedRun(
                        j.cfg, j.policy, {p}, referenceSeed, "", rep.sim);
                    if (!ref.completed)
                        die(1, "traced reference run of " + p +
                                   " did not complete");
                    it = alone.emplace(key, ref.ipc[0]).first;
                }
                m.aloneIpc.push_back(it->second);
            }
            m.slowdown = sim::slowdowns(m.aloneIpc, m.run.ipc);
            m.weightedSpeedup = sim::weightedSpeedup(m.slowdown);
            m.maxSlowdown = sim::unfairness(m.slowdown);
        }
        rep.results.push_back(std::move(m));
    }
    if (w.telemetry) {
        Span s(LTelemetry);
        auto f0 = Clock::now();
        sim::MetricsCollector::global().flush();
        rep.flush = secondsSince(f0);
    }
    rep.wall = secondsSince(t0);
    rep.spans = spans;
    rep.setup = static_cast<double>(spans[LSetup].inclNs) * 1e-9;
    rep.references = alone.size();
    finishTelemetry(w, tmp, rep);
    for (const auto &m : rep.results)
        rep.digests.push_back(digestOf(m));
    return rep;
}

// ---------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------

/** @return the p-quantile of v, interpolating linearly between
 *  order statistics. */
double
quantile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             jsonNumber(metrics[i].value) + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool printPins = false;
    std::string pins;
    std::string tmp;
    std::string gitSha = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--print-pins") {
            a.printPins = true;
            continue;
        }
        if (i + 1 >= argc)
            die(2, k + " needs a value");
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty())
                die(2, "bad --seed " + v);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0))
                die(2, "bad --seconds " + v);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                die(2, "bad --trace " + v);
            a.trace = v == "1";
        } else if (k == "--pins") {
            a.pins = v;
        } else if (k == "--tmp") {
            a.tmp = v;
        } else if (k == "--git-sha") {
            a.gitSha = v;
        } else {
            die(2, "unknown argument " + k);
        }
    }
    if (a.workload.empty())
        die(2, "--workload is required");
    return a;
}

/** Seed whose digests are checked on every run, before timing. */
constexpr std::uint64_t defaultSeed = 1;

/** Minimum timed repetitions per run, whatever --seconds says. */
constexpr int minReps = 3;

} // anonymous namespace

int
main(int argc, char **argv)
{
    guardBuildAndEnv();
    const Args args = parseArgs(argc, argv);
    const Workload &w = findWorkloadDef(args.workload);
    const fs::path tmp = args.tmp.empty()
                             ? fs::path(".bench_build/perfbench_tmp")
                             : fs::path(args.tmp);

    if (args.printPins) {
        std::vector<sim::RunJob> batch = batchOf(w, args.seed);
        Rep rep = untracedRep(w, batch, tmp);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::printf("%s %s\n",
                        pinKey(w.name, args.seed, jobName(batch[i])).c_str(),
                        hex(rep.digests[i]).c_str());
        }
        return 0;
    }
    if (args.pins.empty())
        die(2, "--pins is required");
    const Pins pins = loadPins(args.pins);

    std::printf("workload %s seed %llu trace %d\n", w.name,
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0);
    std::printf("build: type %s, compiler %s, flags '%s', git %s, "
                "nproc %ld\n",
                PERFBENCH_BUILD_TYPE, __VERSION__, PERFBENCH_CXX_FLAGS,
                args.gitSha.c_str(), sysconf(_SC_NPROCESSORS_ONLN));

    // Correctness: the pinned default seed runs first (it also warms
    // the process), and its digests must match the pins.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    auto check = [&](const std::vector<sim::RunJob> &batch,
                     const Rep &rep, std::uint64_t seed) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            ++attempted;
            const std::string key = pinKey(w.name, seed, jobName(batch[i]));
            if (!jobPasses(rep.results[i], rep.digests[i], pins, key)) {
                ++failed;
                std::printf("FAILED job %s: digest %s\n", key.c_str(),
                            hex(rep.digests[i]).c_str());
            }
        }
    };
    const std::vector<sim::RunJob> pinned = batchOf(w, defaultSeed);
    for (const sim::RunJob &j : pinned) {
        if (!pins.count(pinKey(w.name, defaultSeed, jobName(j))))
            die(1, "no pinned digest for " +
                       pinKey(w.name, defaultSeed, jobName(j)));
    }
    Rep warm = untracedRep(w, pinned, tmp);
    check(pinned, warm, defaultSeed);
    const bool self_ok = selfTest(warm.results.front());
    std::printf("digest self-test (one-field perturbations caught): %s\n",
                self_ok ? "ok" : "FAILED");

    const std::vector<sim::RunJob> batch = batchOf(w, args.seed);
    const double instr = requestedInstr(w, batch);
    const std::size_t expected_refs = referencesOf(batch).size();
    std::vector<Rep> untraced;
    std::vector<Rep> traced;
    auto t0 = Clock::now();
    while (true) {
        untraced.push_back(untracedRep(w, batch, tmp));
        if (args.trace)
            traced.push_back(tracedRep(w, batch, tmp));
        const int n = static_cast<int>(untraced.size());
        if (n >= minReps && secondsSince(t0) >= args.seconds)
            break;
    }

    // Same work on every repetition, and traced == untraced.
    bool same = true;
    for (const Rep &r : untraced) {
        same &= r.references == expected_refs;
        same &= r.digests == untraced.front().digests;
    }
    for (const Rep &r : traced) {
        same &= r.references == expected_refs;
        same &= r.sim.events == traced.front().sim.events;
        same &= r.digests == untraced.front().digests;
    }
    if (!same)
        std::printf("FAILED: repetitions differ in work or results\n");
    check(batch, untraced.front(), args.seed);

    std::vector<double> mips, setup, walls;
    for (const Rep &r : untraced) {
        mips.push_back(instr / r.cpu / 1e6);
        setup.push_back(r.setup);
        walls.push_back(r.wall);
    }
    const bool correct = failed == 0 && same && self_ok;
    std::printf("jobs_failed %zu / jobs_total %zu\n", failed, attempted);
    std::printf("repetitions %zu, %.0f simulated instr and %zu reference "
                "runs each\n",
                untraced.size(), instr, expected_refs);

    std::vector<Metric> out;
    if (!args.trace) {
        // sim_mips is the slow decile of the per-repetition rates
        // (the 90th-percentile batch CPU time).  On a shared host the
        // rates are bimodal and the mix of modes moves the median and
        // the best repetition between runs; the slow decile stays put
        // (README.md, "Statistics").
        out = {{"sim_mips", quantile(mips, 0.1), "MIPS"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mb", peakRssMb(), "MB"}};
        for (const Metric &m : out)
            std::printf("%-12s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("over %zu repetitions: sim_mips median %.6g, best "
                    "%.6g; setup_s p90 %.6g\n",
                    untraced.size(), median(mips), quantile(mips, 1.0),
                    quantile(setup, 0.9));
        printResult(correct, attempted, failed, out);
        return correct ? 0 : 1;
    }

    // Per-layer table: medians of the host-time figures over the
    // traced repetitions; counts repeat exactly.
    const Rep &last = traced.back();
    const SimTotals &s = last.sim;
    auto med = [&](auto f) {
        std::vector<double> v;
        for (const Rep &r : traced)
            v.push_back(f(r));
        return median(v);
    };
    auto share = [&](Layer l) {
        return med([l](const Rep &r) {
            return static_cast<double>(r.spans[l].selfNs) * 1e-9 / r.wall;
        });
    };
    auto nsPerCall = [&](Layer l) {
        return med([l](const Rep &r) {
            return ratio(static_cast<double>(r.spans[l].selfNs),
                         static_cast<double>(r.spans[l].calls));
        });
    };
    const double runs = static_cast<double>(batch.size() + expected_refs);
    const double hybrid_calls = static_cast<double>(last.spans[LHybrid].calls);
    const double overhead =
        med([](const Rep &r) { return r.wall; }) / median(walls);
    const double coverage = med([](const Rep &r) {
        std::uint64_t self = 0;
        for (unsigned l = 0; l < NumLayers; ++l)
            self += r.spans[static_cast<Layer>(l)].selfNs;
        return static_cast<double>(self) * 1e-9 / r.wall;
    });
    out = {
        {"trace.calls", static_cast<double>(last.spans[LTrace].calls), "count"},
        {"trace.ns_per_call", nsPerCall(LTrace), "ns"},
        {"trace.share", share(LTrace), "fraction"},
        {"os.translate_calls", static_cast<double>(last.spans[LOs].calls),
         "count"},
        {"os.ns_per_call", nsPerCall(LOs), "ns"},
        {"os.share", share(LOs), "fraction"},
        {"hybrid.access_calls", hybrid_calls, "count"},
        {"hybrid.ns_per_call", nsPerCall(LHybrid), "ns"},
        {"hybrid.share", share(LHybrid), "fraction"},
        {"hybrid.stc_hit_rate",
         ratio(s.stcHitWeighted, static_cast<double>(s.served)), "fraction"},
        {"hybrid.swap_fraction",
         ratio(static_cast<double>(s.swaps), static_cast<double>(s.served)),
         "fraction"},
        {"hybrid.m1_fraction",
         ratio(static_cast<double>(s.servedM1),
               static_cast<double>(s.served)),
         "fraction"},
        {"policy.calls", static_cast<double>(last.spans[LPolicy].calls),
         "count"},
        {"policy.m2_decisions", static_cast<double>(s.m2Decisions), "count"},
        {"policy.ns_per_call", nsPerCall(LPolicy), "ns"},
        {"policy.share", share(LPolicy), "fraction"},
        {"policy.swap_accept_ratio",
         ratio(static_cast<double>(s.swapDecisions),
               static_cast<double>(s.m2Decisions)),
         "fraction"},
        {"event.executed", static_cast<double>(s.events), "count"},
        {"event.per_access",
         ratio(static_cast<double>(s.events), hybrid_calls), "ratio"},
        {"event.ns_per_event", med([](const Rep &r) {
             return ratio(static_cast<double>(r.spans[LEvent].inclNs),
                          static_cast<double>(r.spans[LEvent].calls));
         }),
         "ns"},
        {"event.self_share", share(LEvent), "fraction"},
        {"mem.demand_reads", static_cast<double>(s.demandReads), "count"},
        {"mem.demand_writes", static_cast<double>(s.demandWrites), "count"},
        {"mem.row_hit_rate",
         ratio(static_cast<double>(s.rowHits),
               static_cast<double>(s.rowHits + s.rowMisses)),
         "fraction"},
        {"mem.bus_busy_frac", ratio(s.busBusy, s.channelTicks), "fraction"},
        {"mem.swap_busy_frac", ratio(s.swapBusy, s.channelTicks), "fraction"},
        {"mem.read_latency_ns",
         ratio(s.readLatSum, static_cast<double>(s.readLatCount)) /
             mem::mcCyclesPerNs,
         "ns"},
        {"cpu.instr", static_cast<double>(s.instr), "count"},
        {"cpu.ipc_gmean", geometricMean(s.ipcs), "ipc"},
        {"sim.setup_ns_per_job",
         med([](const Rep &r) { return r.setup * 1e9; }) / runs, "ns"},
        {"sim.teardown_ns_per_job",
         med([](const Rep &r) {
             return static_cast<double>(r.spans[LTeardown].inclNs);
         }) / runs,
         "ns"},
        {"sim.reference_runs", static_cast<double>(expected_refs), "count"},
        {"sim.trace_overhead", overhead, "ratio"},
        {"sim.span_coverage", coverage, "fraction"},
        {"telemetry.bytes_written", static_cast<double>(last.bytes), "B"},
        {"telemetry.flush_s", med([](const Rep &r) { return r.flush; }), "s"},
    };
    std::printf("%-26s %16s  %s\n", "layer metric", "value", "unit");
    for (const Metric &m : out)
        std::printf("%-26s %16.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool covered = coverage >= 0.9;
    if (!covered)
        std::printf("FAILED: span coverage %.3f < 0.9\n", coverage);
    printResult(correct && covered, attempted, failed, out);
    return correct && covered ? 0 : 1;
}
