/**
 * @file
 * Tests for the observability layer: stat-registry name stability,
 * epoch-sampler ring + determinism across worker counts, decision
 * trace ring wraparound with wrap-immune totals, reconciliation of
 * trace summaries against the policy's own counters, telemetry-off
 * bit-identity, Chrome-trace export, every StatSet counter reaching
 * stats.json and the OpenMetrics exposition, StatSet and Histogram
 * accounting and the logging/telemetry flag parsing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/openmetrics.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"
#include "core/mdm.hh"
#include "core/profess.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;
using core::Mdm;
using core::ProfessPolicy;
using telemetry::DecisionTraceSink;
using telemetry::EpochSampler;
using telemetry::StatRegistry;
using telemetry::TraceKind;
using telemetry::TraceRecord;

namespace
{

SystemConfig
quickSingle()
{
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = 150000;
    c.core.warmupInstr = 50000;
    return c;
}

SystemConfig
quickQuad()
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 120000;
    c.core.warmupInstr = 60000;
    return c;
}

/** Every field of a RunResult must match bit-for-bit. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.programs, b.programs);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "ipc[" << i << "]";
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.servedM1, b.servedM1);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.joules, b.joules);
    EXPECT_EQ(a.watts, b.watts);
    EXPECT_EQ(a.servedTotal, b.servedTotal);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.stcHitRate, b.stcHitRate);
    EXPECT_EQ(a.meanReadLatencyNs, b.meanReadLatencyNs);
    EXPECT_EQ(a.m1Fraction, b.m1Fraction);
    EXPECT_EQ(a.swapFraction, b.swapFraction);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
    EXPECT_EQ(a.m2WriteFraction, b.m2WriteFraction);
    EXPECT_EQ(a.completed, b.completed);
}

/** Capture what a dump function writes to a FILE*. */
std::string
dumpToString(const std::function<void(std::FILE *)> &fn)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    fn(f);
    long n = std::ftell(f);
    std::string s(static_cast<std::size_t>(n), '\0');
    std::rewind(f);
    EXPECT_EQ(std::fread(&s[0], 1, s.size(), f), s.size());
    std::fclose(f);
    return s;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string s;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        s.append(buf, n);
    std::fclose(f);
    return s;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
tempBase(const std::string &tag)
{
    return ::testing::TempDir() + "profess_" + tag + "_" +
           std::to_string(::getpid());
}

/** Saves/restores the process-wide telemetry configuration. */
struct TelemetryConfigGuard
{
    TelemetryConfig saved;
    TelemetryConfigGuard() : saved(TelemetryConfig::global()) {}
    ~TelemetryConfigGuard() { TelemetryConfig::global() = saved; }
};

std::unique_ptr<System>
makeSystem(const SystemConfig &cfg, const std::string &policy,
           const std::vector<std::string> &programs,
           std::uint64_t seed)
{
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            programs[i], trace::defaultScale, seed + 1009 * (i + 1)));
    }
    return std::make_unique<System>(cfg, policy, std::move(sources));
}

} // anonymous namespace

TEST(StatRegistry, RegistersResolvesAndDumps)
{
    StatRegistry reg;
    std::uint64_t counter = 7;
    reg.addCounter("z.counter", counter);
    reg.addProbe("a.probe", []() { return 2.5; });

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.contains("z.counter"));
    EXPECT_TRUE(reg.contains("a.probe"));
    EXPECT_FALSE(reg.contains("missing"));
    EXPECT_EQ(reg.value("z.counter"), 7.0);
    EXPECT_EQ(reg.value("a.probe"), 2.5);
    EXPECT_EQ(reg.value("missing"), 0.0);

    // Counters are live references, not snapshots.
    counter = 11;
    EXPECT_EQ(reg.value("z.counter"), 11.0);

    // names() is sorted regardless of registration order.
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.probe");
    EXPECT_EQ(names[1], "z.counter");

    std::string json =
        dumpToString([&reg](std::FILE *f) { reg.dumpJson(f); });
    EXPECT_NE(json.find("\"a.probe\""), std::string::npos);
    EXPECT_NE(json.find("\"z.counter\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
}

TEST(StatRegistryDeathTest, RejectsDuplicateNames)
{
    // Duplicate dotted names would silently shadow each other in
    // value() and produce ambiguous report columns; registration
    // panics instead (scripts/lint_profess.py catches the literal
    // cases statically, this covers runtime-composed prefixes).
    StatRegistry reg;
    std::uint64_t c = 0;
    reg.addCounter("dup.name", c);
    EXPECT_DEATH(reg.addCounter("dup.name", c),
                 "duplicate statistic name");
    EXPECT_DEATH(reg.addProbe("dup.name", []() { return 0.0; }),
                 "duplicate statistic name");
}

TEST(StatRegistry, ScalesToThousandsOfRegistrations)
{
    // Regression for the O(n^2) duplicate scan: contains() and the
    // addEntry() duplicate check are hash-set backed, so a few
    // thousand registrations (parallel sweeps register per-channel,
    // per-core and per-policy sets) stay effectively free.
    StatRegistry reg;
    const std::size_t n = 4000;
    std::vector<std::uint64_t> storage(n);
    for (std::size_t i = 0; i < n; ++i) {
        storage[i] = i;
        reg.addCounter("bulk.c" + std::to_string(i), storage[i]);
    }
    EXPECT_EQ(reg.size(), n);
    for (std::size_t i = 0; i < n; i += 97)
        EXPECT_TRUE(reg.contains("bulk.c" + std::to_string(i)));
    EXPECT_FALSE(reg.contains("bulk.c" + std::to_string(n)));
    EXPECT_FALSE(reg.contains("bulk"));
    EXPECT_EQ(reg.value("bulk.c1234"), 1234.0);

    // names() stays fully sorted even at this size.
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), n);
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(names[i - 1], names[i]);
}

TEST(StatRegistry, ComponentNamesStableAcrossConstruction)
{
    // Two identically-built systems must register the exact same
    // dotted names: dashboards and diff tools key on them.
    TelemetryConfig cfg; // disabled: registration is unconditional
    auto sys1 = makeSystem(quickSingle(), "profess", {"mcf"}, 42);
    auto sys2 = makeSystem(quickSingle(), "profess", {"mcf"}, 43);
    RunTelemetry t1(cfg, "a");
    RunTelemetry t2(cfg, "b");
    sys1->attachTelemetry(t1);
    sys2->attachTelemetry(t2);

    std::vector<std::string> n1 = t1.registry().names();
    std::vector<std::string> n2 = t2.registry().names();
    EXPECT_EQ(n1, n2);
    EXPECT_GT(n1.size(), 20u);

    // Spot-check the documented hierarchy.
    for (const char *name :
         {"hybrid.swaps", "hybrid.stc.hits", "hybrid.stc.hit_rate",
          "hybrid.p0.served", "core0.retired", "core0.mem_reads",
          "os.alloc.cache_hit_rate", "mem.ch0.read_queue",
          "policy.profess.guidance.case1",
          "policy.profess.mdm.path_net_benefit",
          "policy.profess.rsm.p0.sf_a",
          "policy.profess.rsm.p0.periods"}) {
        EXPECT_TRUE(t1.registry().contains(name)) << name;
    }
}

TEST(StatRegistry, ExportsEveryDeclaredStatSetCounter)
{
    // Every counter a StatSet declares reaches the registry,
    // stats.json and the OpenMetrics exposition, including those
    // first bumped mid-run (swaps, M1 refreshes, STC evictions and
    // write-backs, stat folds, swap aborts).
    TelemetryConfig cfg;
    cfg.outDir = tempBase("statset_export");
    SystemConfig sys_cfg = quickQuad();
    auto sys = makeSystem(sys_cfg, "profess",
                          {"lbm", "mcf", "GemsFDTD", "omnetpp"}, 11);
    ScenarioSchedule schedule;
    schedule.swapAbortWindow(/*at=*/0, /*duration=*/0,
                             /*probability=*/0.2, /*max_retries=*/2,
                             /*backoff=*/64);
    ScenarioController scenario(schedule, 11);
    scenario.attach(*sys);
    RunTelemetry bundle(cfg, "export");
    sys->attachTelemetry(bundle);
    scenario.registerTelemetry(bundle.registry(), "scenario");
    ASSERT_TRUE(sys->run());
    bundle.finish("profess", "export", 11, configJson(sys_cfg), true);

    const StatRegistry &reg = bundle.registry();
    std::vector<std::pair<std::string, const StatSet *>> sets = {
        {"hybrid", &sys->controller().stats()},
        {"os.alloc", &sys->allocator().stats()},
        {"scenario", &scenario.stats()}};
    for (unsigned c = 0; c < sys->memory().numChannels(); ++c) {
        sets.emplace_back("mem.ch" + std::to_string(c),
                          &sys->memory().channel(c).stats());
    }
    ASSERT_GE(sets.size(), 5u);

    // The run exercised the counters that used to be created lazily.
    const StatSet &hybrid = sys->controller().stats();
    EXPECT_GT(sys->controller().swapCount(), 0u);
    EXPECT_GT(hybrid.counter("stc_evictions"), 0u);
    EXPECT_GT(hybrid.counter("st_writebacks"), 0u);
    EXPECT_GT(hybrid.counter("stats_folds"), 0u);
    EXPECT_GT(hybrid.counter("swap_aborts"), 0u);
    EXPECT_GT(sys->memory().totalCounter("swaps"), 0u);
    EXPECT_GT(sys->memory().totalCounter("m1_refreshes"), 0u);

    // stats.json: one "name": value pair per line.
    std::map<std::string, std::string> json;
    std::istringstream lines(
        readFile(bundle.directory() + "/stats.json"));
    for (std::string line; std::getline(lines, line);) {
        std::size_t open = line.find('"');
        std::size_t close = line.find("\": ", open + 1);
        if (open == std::string::npos || close == std::string::npos)
            continue;
        std::string value = line.substr(close + 3);
        if (!value.empty() && value.back() == ',')
            value.pop_back();
        json[line.substr(open + 1, close - open - 1)] = value;
    }
    std::string prom = dumpToString([&reg](std::FILE *f) {
        telemetry::writeOpenMetrics(
            f, {telemetry::MetricsSnapshot::capture(reg, "export")});
    });

    std::size_t checked = 0;
    for (const auto &[prefix, set] : sets) {
        for (std::size_t i = 0; i < set->size(); ++i) {
            const std::string name = set->name(i);
            const std::string dotted = prefix + "." + name;
            const std::uint64_t v = set->counter(name);
            EXPECT_EQ(v, (*set)[i]) << dotted;
            ASSERT_TRUE(reg.contains(dotted)) << dotted;
            EXPECT_EQ(reg.value(dotted), static_cast<double>(v))
                << dotted;
            EXPECT_EQ(json[dotted], std::to_string(v)) << dotted;

            telemetry::MetricName mn = telemetry::mapDottedName(dotted);
            std::string sample = "\n" + mn.family + "_total{";
            for (const auto &[key, label] : mn.labels)
                sample += key + "=\"" + label + "\",";
            sample += "run=\"export\"} " + std::to_string(v) + "\n";
            EXPECT_NE(prom.find(sample), std::string::npos) << sample;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 2u * 14u + 9u + 2u + 17u);
}

TEST(EpochSampler, RingWrapKeepsNewestOldestFirst)
{
    StatRegistry reg;
    std::uint64_t counter = 0;
    reg.addCounter("c", counter);

    EpochSampler sampler(reg, /*interval_ticks=*/1000,
                         /*ring_capacity=*/4);
    sampler.select(reg.names());
    ASSERT_EQ(sampler.selection().size(), 1u);

    for (std::uint64_t i = 0; i < 10; ++i) {
        counter = i * 3;
        sampler.sampleNow(static_cast<Tick>(i * 1000));
    }
    EXPECT_EQ(sampler.epochs(), 10u);

    std::vector<EpochSampler::Sample> kept = sampler.retained();
    ASSERT_EQ(kept.size(), 4u);
    for (std::size_t i = 0; i < kept.size(); ++i) {
        std::uint64_t epoch = 6 + i; // oldest retained first
        EXPECT_EQ(kept[i].epoch, epoch);
        EXPECT_EQ(kept[i].tick, epoch * 1000);
        ASSERT_EQ(kept[i].values.size(), 1u);
        EXPECT_EQ(kept[i].values[0],
                  static_cast<double>(epoch * 3));
    }
}

TEST(TraceRing, WraparoundKeepsWrapImmuneTotals)
{
    constexpr std::uint32_t kNetBenefit =
        static_cast<std::uint32_t>(Mdm::DecidePath::NetBenefit);
    constexpr std::uint32_t kRejected =
        static_cast<std::uint32_t>(Mdm::DecidePath::Rejected);

    DecisionTraceSink sink(/*capacity=*/8);
    EXPECT_EQ(sink.capacity(), 8u);

    // 21 records: 12 MDM decides (7 net_benefit swaps, 5 rejected),
    // 6 guidance cases, 3 period rollovers.
    std::uint64_t tick = 0;
    auto push = [&sink, &tick](TraceKind kind, std::uint32_t detail,
                               bool swapped) {
        TraceRecord r;
        r.tick = tick++;
        r.kind = static_cast<std::uint8_t>(kind);
        r.detail = detail;
        r.swapped = swapped ? 1 : 0;
        sink.push(r);
    };
    for (int i = 0; i < 7; ++i)
        push(TraceKind::MdmDecide, kNetBenefit, true);
    for (int i = 0; i < 5; ++i)
        push(TraceKind::MdmDecide, kRejected, false);
    for (int i = 0; i < 6; ++i)
        push(TraceKind::GuidanceCase, 1, false);
    for (int i = 0; i < 3; ++i)
        push(TraceKind::RsmPeriod, 0, false);

    EXPECT_EQ(sink.total(), 21u);
    EXPECT_EQ(sink.retainedCount(), 8u);
    EXPECT_EQ(sink.kindTotal(TraceKind::MdmDecide), 12u);
    EXPECT_EQ(sink.kindTotal(TraceKind::GuidanceCase), 6u);
    EXPECT_EQ(sink.kindTotal(TraceKind::RsmPeriod), 3u);
    EXPECT_EQ(sink.pathTotal(kNetBenefit), 7u);
    EXPECT_EQ(sink.pathTotal(kRejected), 5u);
    EXPECT_EQ(sink.swapTotal(kNetBenefit), 7u);
    EXPECT_EQ(sink.swapTotal(kRejected), 0u);

    // The ring holds the newest 8 records, oldest first.
    std::vector<TraceRecord> kept = sink.retained();
    ASSERT_EQ(kept.size(), 8u);
    for (std::size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(kept[i].tick, 13 + i);

    // JSONL flush: one line per retained record plus the summary,
    // whose totals are wrap-immune (they cover dropped records too).
    std::string jsonl =
        dumpToString([&sink](std::FILE *f) { sink.flushJsonl(f); });
    std::size_t lines = 0;
    for (char c : jsonl)
        lines += c == '\n';
    EXPECT_EQ(lines, 9u);
    EXPECT_NE(jsonl.find("\"summary\":{\"total\":21,\"retained\":8,"
                         "\"dropped\":13"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"rsm_period\":3"), std::string::npos);
}

TEST(TraceReconciliation, SinkTotalsMatchPolicyCounters)
{
    TelemetryConfig cfg;
    cfg.trace = true;
    cfg.epochInterval = 5000;

    auto sys = makeSystem(quickSingle(), "profess", {"mcf"}, 42);
    RunTelemetry bundle(cfg, "reconcile");
    sys->attachTelemetry(bundle);
    ASSERT_TRUE(sys->run());

    DecisionTraceSink *sink = bundle.decisionSink();
    ASSERT_NE(sink, nullptr);
    ProfessPolicy *pp = sys->professPolicy();
    ASSERT_NE(pp, nullptr);

    // Every MDM evaluation was traced: per-path counts in the sink
    // equal the policy's own path counters exactly.
    constexpr auto num_paths =
        static_cast<unsigned>(Mdm::DecidePath::NumPaths);
    std::uint64_t decides = 0, swap_decisions = 0;
    for (unsigned p = 0; p < num_paths; ++p) {
        auto path = static_cast<Mdm::DecidePath>(p);
        EXPECT_EQ(sink->pathTotal(p), pp->mdm().pathCount(path))
            << Mdm::pathName(path);
        if (!Mdm::pathSwaps(path)) {
            EXPECT_EQ(sink->swapTotal(p), 0u) << Mdm::pathName(path);
        }
        decides += sink->pathTotal(p);
        swap_decisions += sink->swapTotal(p);
    }
    EXPECT_EQ(sink->kindTotal(TraceKind::MdmDecide), decides);
    EXPECT_GT(decides, 0u);

    // Swap-deciding paths account for every executed swap (a
    // decision can still be in flight when the run ends, so the
    // decision count bounds the executed count from above).
    EXPECT_GE(swap_decisions, sys->controller().swapCount());
    EXPECT_GT(sys->controller().swapCount(), 0u);

    // Guidance-case records reconcile with the Table 7 counters.
    std::uint64_t cases = 0;
    for (unsigned c = 0; c < 5; ++c) {
        cases += pp->caseCount(
            static_cast<ProfessPolicy::GuidanceCase>(c));
    }
    EXPECT_EQ(sink->kindTotal(TraceKind::GuidanceCase), cases);

    // Period rollovers reconcile with the RSM period counter, which
    // is also what the registry probe reports.
    EXPECT_EQ(
        static_cast<double>(sink->kindTotal(TraceKind::RsmPeriod)),
        bundle.registry().value("policy.profess.rsm.p0.periods"));

    // The sampler ran and saw the full registry.
    ASSERT_NE(bundle.sampler(), nullptr);
    EXPECT_GT(bundle.sampler()->epochs(), 0u);
    EXPECT_EQ(bundle.sampler()->selection().size(),
              bundle.registry().size());
}

TEST(Differential, TelemetryOffIsBitIdentical)
{
    TelemetryConfigGuard guard;
    const std::vector<std::string> programs = {"mcf"};

    // Telemetry on (tracing + sampling, no artifact directory).
    TelemetryConfig::global() = TelemetryConfig{};
    TelemetryConfig::global().trace = true;
    TelemetryConfig::global().epochInterval = 5000;
    AloneIpcCache cache_on;
    ExperimentRunner on(quickSingle(), trace::defaultScale,
                        &cache_on);
    RunResult a = on.run("profess", programs, 7, "mix");

    // Telemetry off, same seed: labelled and clean runs.
    TelemetryConfig::global() = TelemetryConfig{};
    AloneIpcCache cache_off;
    ExperimentRunner off(quickSingle(), trace::defaultScale,
                         &cache_off);
    RunResult b = off.run("profess", programs, 7, "mix");
    RunResult c = off.run("profess", programs, 7);

    EXPECT_TRUE(a.completed);
    expectIdentical(a, b);
    expectIdentical(a, c);
}

TEST(Differential, EpochSeriesIdenticalAcrossWorkerCounts)
{
    TelemetryConfigGuard guard;
    std::string base = tempBase("epochs");
    const WorkloadSpec *w01 = findWorkload("w01");
    const WorkloadSpec *w05 = findWorkload("w05");
    ASSERT_NE(w01, nullptr);
    ASSERT_NE(w05, nullptr);

    std::vector<RunJob> batch = {
        multiJob(quickQuad(), "profess", *w01),
        multiJob(quickQuad(), "mdm", *w05),
    };
    for (RunJob &j : batch)
        j.slowdowns = false; // reference runs are label-free anyway

    auto runWith = [&batch](unsigned jobs, const std::string &dir) {
        TelemetryConfig::global() = TelemetryConfig{};
        TelemetryConfig::global().outDir = dir;
        TelemetryConfig::global().epochInterval = 5000;
        AloneIpcCache cache;
        ParallelRunner runner(jobs, &cache);
        runner.setProgress(false);
        return runner.run(batch);
    };
    std::vector<MultiMetrics> serial = runWith(1, base + "/serial");
    std::vector<MultiMetrics> parallel = runWith(8, base + "/par");

    ASSERT_EQ(serial.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        expectIdentical(serial[i].run, parallel[i].run);
        std::string run_dir =
            batch[i].label + "_" + batch[i].policy;
        SCOPED_TRACE(run_dir);
        std::string s_epochs =
            readFile(base + "/serial/" + run_dir + "/epochs.jsonl");
        std::string p_epochs =
            readFile(base + "/par/" + run_dir + "/epochs.jsonl");
        EXPECT_FALSE(s_epochs.empty());
        EXPECT_EQ(s_epochs, p_epochs);
        // The end-of-run stat dump is deterministic too.
        std::string s_stats =
            readFile(base + "/serial/" + run_dir + "/stats.json");
        std::string p_stats =
            readFile(base + "/par/" + run_dir + "/stats.json");
        EXPECT_FALSE(s_stats.empty());
        EXPECT_EQ(s_stats, p_stats);
    }
}

TEST(Differential, MetricsExportIsBitIdentical)
{
    TelemetryConfigGuard guard;
    const std::vector<std::string> programs = {"mcf"};
    std::string prom = tempBase("metrics_off") + ".prom";

    // --metrics-out alone turns on the full observational stack
    // (latency-attribution spans, fairness gauges, exporter);
    // simulation results must not move at all.
    MetricsCollector::global().clear();
    TelemetryConfig::global() = TelemetryConfig{};
    TelemetryConfig::global().metricsOut = prom;
    AloneIpcCache cache_on;
    ExperimentRunner on(quickSingle(), trace::defaultScale,
                        &cache_on);
    RunResult a = on.run("profess", programs, 7, "mix");
    MetricsCollector::global().flush();
    MetricsCollector::global().clear();

    TelemetryConfig::global() = TelemetryConfig{};
    AloneIpcCache cache_off;
    ExperimentRunner off(quickSingle(), trace::defaultScale,
                         &cache_off);
    RunResult b = off.run("profess", programs, 7, "mix");

    EXPECT_TRUE(a.completed);
    expectIdentical(a, b);

    // The exposition was written, carries latency spans and is
    // terminated (deep validation lives in tests/test_metrics.cc).
    std::string text = readFile(prom);
    EXPECT_NE(text.find("profess_latency_bucket"),
              std::string::npos);
    EXPECT_NE(text.find("# EOF"), std::string::npos);
}

TEST(Differential, MetricsFileIdenticalAcrossWorkerCounts)
{
    TelemetryConfigGuard guard;
    std::string base = tempBase("metrics_jobs");
    const WorkloadSpec *w01 = findWorkload("w01");
    const WorkloadSpec *w05 = findWorkload("w05");
    ASSERT_NE(w01, nullptr);
    ASSERT_NE(w05, nullptr);

    std::vector<RunJob> batch = {
        multiJob(quickQuad(), "profess", *w01),
        multiJob(quickQuad(), "mdm", *w05),
    };
    for (RunJob &j : batch)
        j.slowdowns = false;

    // The collector sorts snapshots by run label before every
    // rewrite, so worker count and completion order must leave no
    // trace in the exposition: a zero-threshold metrics_diff.py of
    // these two files reports nothing (here byte equality, which is
    // stronger).
    auto runWith = [&batch](unsigned jobs, const std::string &file) {
        MetricsCollector::global().clear();
        TelemetryConfig::global() = TelemetryConfig{};
        TelemetryConfig::global().metricsOut = file;
        AloneIpcCache cache;
        ParallelRunner runner(jobs, &cache);
        runner.setProgress(false);
        runner.run(batch);
        MetricsCollector::global().flush();
    };
    std::string serial = base + "_serial.prom";
    std::string parallel = base + "_par.prom";
    runWith(1, serial);
    runWith(8, parallel);
    MetricsCollector::global().clear();

    std::string s = readFile(serial);
    std::string p = readFile(parallel);
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s, p);
}

TEST(RunTelemetry, WritesRunArtifacts)
{
    std::string base = tempBase("artifacts");
    TelemetryConfig cfg;
    cfg.trace = true;
    cfg.outDir = base;
    cfg.epochInterval = 5000;

    SystemConfig sys_cfg = quickSingle();
    sys_cfg.core.instrQuota = 80000;
    sys_cfg.core.warmupInstr = 0;
    auto sys = makeSystem(sys_cfg, "profess", {"mcf"}, 5);

    // Labels are sanitized into filesystem-safe directory names.
    RunTelemetry bundle(cfg, "smoke run:1");
    EXPECT_EQ(bundle.directory(), base + "/smoke_run_1");
    sys->attachTelemetry(bundle);
    ASSERT_TRUE(sys->run());
    bundle.finish("profess", "mcf", 5, configJson(sys_cfg), true);

    const std::string dir = bundle.directory();
    for (const char *f : {"manifest.json", "stats.json",
                          "epochs.jsonl", "decisions.jsonl",
                          "trace.json"}) {
        EXPECT_TRUE(fileExists(dir + "/" + f)) << f;
    }
    std::string manifest = readFile(dir + "/manifest.json");
    EXPECT_NE(manifest.find("\"profess-run-manifest-v2\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"smoke run:1\""), std::string::npos);
    EXPECT_NE(manifest.find("\"seed\": 5"), std::string::npos);
    std::string decisions = readFile(dir + "/decisions.jsonl");
    EXPECT_NE(decisions.find("\"summary\""), std::string::npos);
    std::string chrome = readFile(dir + "/trace.json");
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.find("controller.access"), std::string::npos);
}

TEST(ChromeTrace, CapsEventsAndCountsDrops)
{
    telemetry::ChromeTraceSink sink(/*max_events=*/4);
    for (int i = 0; i < 3; ++i)
        sink.complete("swap", "hybrid", 100 * i, 50, 0);
    for (int i = 0; i < 3; ++i)
        sink.instant("st_fill", "hybrid", 10 * i, 1);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);

    // Call-sampled timer: 128 calls at period 64 -> 2 timed.
    telemetry::TimerSlot slot{1000, 128, 2};
    EXPECT_EQ(slot.estimatedNs(), 64000.0);
    std::string json = dumpToString([&sink, &slot](std::FILE *f) {
        sink.writeJson(f, {{"controller.access", &slot}});
    });
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ns\":1000,\"calls\":128,\"sampled\":2,"
                        "\"est_ns\":64000"),
              std::string::npos);
    EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
}

TEST(TelemetryConfig, ArgAndEnvParsing)
{
    ::unsetenv("PROFESS_TRACE");
    ::unsetenv("PROFESS_TELEMETRY_OUT");
    ::unsetenv("PROFESS_EPOCH_TICKS");
    ::unsetenv("PROFESS_METRICS_OUT");

    // Flags are applied and stripped; unrelated arguments survive.
    const char *raw[] = {"bench",        "--trace", "--telemetry-out",
                         "/tmp/x",       "--jobs",  "4",
                         "--epoch-ticks=123", "--metrics-out",
                         "/tmp/m.prom"};
    std::vector<char *> argv;
    for (const char *a : raw)
        argv.push_back(const_cast<char *>(a));
    argv.push_back(nullptr);
    int argc = 9;
    TelemetryConfig cfg;
    cfg.initFromArgs(argc, argv.data());
    EXPECT_TRUE(cfg.trace);
    EXPECT_EQ(cfg.outDir, "/tmp/x");
    EXPECT_EQ(cfg.epochInterval, 123u);
    EXPECT_EQ(cfg.metricsOut, "/tmp/m.prom");
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[1], "--jobs");
    EXPECT_STREQ(argv[2], "4");

    // The = spelling, alone, also enables telemetry.
    const char *raw_eq[] = {"bench", "--metrics-out=/tmp/n.prom"};
    std::vector<char *> argv_eq;
    for (const char *a : raw_eq)
        argv_eq.push_back(const_cast<char *>(a));
    argv_eq.push_back(nullptr);
    int argc_eq = 2;
    TelemetryConfig eq_cfg;
    eq_cfg.initFromArgs(argc_eq, argv_eq.data());
    EXPECT_EQ(eq_cfg.metricsOut, "/tmp/n.prom");
    EXPECT_TRUE(eq_cfg.enabled());
    EXPECT_EQ(argc_eq, 1);

    // Environment spellings.
    ::setenv("PROFESS_TRACE", "1", 1);
    ::setenv("PROFESS_TELEMETRY_OUT", "/tmp/y", 1);
    ::setenv("PROFESS_EPOCH_TICKS", "777", 1);
    ::setenv("PROFESS_METRICS_OUT", "/tmp/env.prom", 1);
    TelemetryConfig env_cfg;
    env_cfg.initFromEnv();
    EXPECT_TRUE(env_cfg.trace);
    EXPECT_EQ(env_cfg.outDir, "/tmp/y");
    EXPECT_EQ(env_cfg.epochInterval, 777u);
    EXPECT_EQ(env_cfg.metricsOut, "/tmp/env.prom");

    // PROFESS_TRACE=0 means off.
    ::setenv("PROFESS_TRACE", "0", 1);
    TelemetryConfig off_cfg;
    off_cfg.initFromEnv();
    EXPECT_FALSE(off_cfg.trace);

    ::unsetenv("PROFESS_TRACE");
    ::unsetenv("PROFESS_TELEMETRY_OUT");
    ::unsetenv("PROFESS_EPOCH_TICKS");
    ::unsetenv("PROFESS_METRICS_OUT");
    EXPECT_FALSE(TelemetryConfig{}.enabled());
}

TEST(Histogram, UnderflowOverflowAccounting)
{
    Histogram h(/*bucket_width=*/1.0, /*num_buckets=*/4);
    h.add(-0.5); // below the first edge
    h.add(0.5);  // bucket 0
    h.add(3.5);  // bucket 3
    h.add(4.0);  // at the last regular edge: overflow
    h.add(100.0);

    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.summary().count(), 5u);

    std::string json =
        dumpToString([&h](std::FILE *f) { h.dumpJson(f); });
    EXPECT_NE(json.find("\"underflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"overflow\":2"), std::string::npos);
}

TEST(HistogramDeathTest, RejectsInvalidBucketEdges)
{
    EXPECT_EXIT(Histogram(0.0, 4), ::testing::ExitedWithCode(1),
                "bucket width");
    EXPECT_EXIT(Histogram(-1.0, 4), ::testing::ExitedWithCode(1),
                "bucket width");
    EXPECT_EXIT(Histogram(1.0, 0), ::testing::ExitedWithCode(1),
                "bucket");
}

TEST(StatSet, KeepsDeclaredOrderAndExportsEveryCounter)
{
    static constexpr const char *names[] = {"zeta", "alpha", "mid"};
    StatSet s(names);
    ASSERT_EQ(s.size(), 3u);
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_STREQ(s.name(i), names[i]);
        EXPECT_EQ(s[i], 0u);
    }
    ++s[0];
    s[2] += 5;
    EXPECT_EQ(s.counter("zeta"), 1u);
    EXPECT_EQ(s.counter("alpha"), 0u);
    EXPECT_EQ(s.counter("mid"), 5u);

    // Every declared counter is registered, zero or not, as a live
    // reference.
    StatRegistry reg;
    reg.addSet("x", s);
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"x.alpha", "x.mid", "x.zeta"}));
    ++s[1];
    EXPECT_EQ(reg.value("x.alpha"), 1.0);
    EXPECT_EQ(reg.value("x.mid"), 5.0);
}

TEST(StatSet, ResetZeroesEveryCounter)
{
    static constexpr const char *names[] = {"a", "b", "c", "d"};
    StatSet s(names);
    for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = 10 * (i + 1);
    s.reset();
    ASSERT_EQ(s.size(), 4u);
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_EQ(s[i], 0u) << s.name(i);
}

TEST(StatSetDeathTest, RejectsUndeclaredAndMalformedNames)
{
    static constexpr const char *names[] = {"reads", "writes"};
    StatSet s(names);
    EXPECT_DEATH(s.counter("misses"),
                 "undeclared StatSet counter 'misses'");
    EXPECT_DEATH(s.counter(""), "undeclared StatSet counter");

    static constexpr const char *dups[] = {"reads", "reads"};
    EXPECT_DEATH(StatSet{dups}, "duplicate StatSet counter 'reads'");
    // A name table shorter than its enum leaves null entries.
    static constexpr const char *missing[3] = {"reads", "writes"};
    EXPECT_DEATH(StatSet{missing}, "StatSet counter 2 has no name");
}

TEST(Logging, WarnRateLimitCountsEveryHit)
{
    int saved = logging::verbosity;
    logging::verbosity = 1;
    logging::resetWarnHistory();

    for (int i = 0; i < 8; ++i)
        warn("telemetry test warning %d", 7);
    // All eight fired (and were counted) even though only the first
    // five were printed.
    EXPECT_EQ(logging::warnCount("telemetry test warning 7"), 8u);
    EXPECT_EQ(logging::warnCount("never emitted"), 0u);

    logging::resetWarnHistory();
    EXPECT_EQ(logging::warnCount("telemetry test warning 7"), 0u);
    logging::verbosity = saved;
}

TEST(Logging, ConfigureStripsVerbosityFlags)
{
    int saved = logging::verbosity;
    ::unsetenv("PROFESS_LOG");

    const char *raw[] = {"t", "--quiet", "--silent", "--keep"};
    std::vector<char *> argv;
    for (const char *a : raw)
        argv.push_back(const_cast<char *>(a));
    argv.push_back(nullptr);
    int argc = 4;
    logging::configure(argc, argv.data());
    EXPECT_EQ(logging::verbosity, 0);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--keep");

    const char *raw2[] = {"t", "--log-level", "2"};
    std::vector<char *> argv2;
    for (const char *a : raw2)
        argv2.push_back(const_cast<char *>(a));
    argv2.push_back(nullptr);
    int argc2 = 3;
    logging::configure(argc2, argv2.data());
    EXPECT_EQ(logging::verbosity, 2);
    EXPECT_EQ(argc2, 1);

    logging::verbosity = saved;
}
