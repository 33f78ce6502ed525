/**
 * @file
 * Tests for the parallel experiment runner: the work-stealing
 * thread pool, deterministic per-job seed derivation, the shared
 * stand-alone reference cache, and — centrally — the differential
 * guarantee that `--jobs 1` and `--jobs N` produce bit-identical
 * RunResult/MultiMetrics under every policy.  Also covers the
 * SystemConfig field table behind the fingerprint that keys the
 * reference cache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/invariant.hh"
#include "common/thread_pool.hh"
#include "sim/config_fields.hh"
#include "sim/parallel_runner.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

SystemConfig
quickQuad()
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 120000;
    c.core.warmupInstr = 60000;
    return c;
}

SystemConfig
quickSingle()
{
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = 150000;
    c.core.warmupInstr = 50000;
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

void
expectIdentical(const MultiMetrics &a, const MultiMetrics &b)
{
    expectIdentical(a.run, b.run);
    ASSERT_EQ(a.aloneIpc.size(), b.aloneIpc.size());
    for (std::size_t i = 0; i < a.aloneIpc.size(); ++i)
        EXPECT_EQ(a.aloneIpc[i], b.aloneIpc[i]);
    ASSERT_EQ(a.slowdown.size(), b.slowdown.size());
    for (std::size_t i = 0; i < a.slowdown.size(); ++i)
        EXPECT_EQ(a.slowdown[i], b.slowdown[i]);
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.maxSlowdown, b.maxSlowdown);
    EXPECT_EQ(a.efficiency, b.efficiency);
}

} // anonymous namespace

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i]() { sum += i; });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, NestedSubmission)
{
    // Tasks submitted from workers (stealing targets) must also be
    // covered by wait().
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&pool, &count]() {
            for (int j = 0; j < 5; ++j)
                pool.submit([&count]() { ++count; });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count]() { ++count; });
    pool.wait();
    pool.submit([&count]() { ++count; });
    pool.submit([&count]() { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(DeriveSeed, PureAndSensitiveToEveryInput)
{
    std::uint64_t s = deriveSeed(1, "pom", "w01", 0);
    EXPECT_EQ(s, deriveSeed(1, "pom", "w01", 0));
    EXPECT_NE(s, deriveSeed(2, "pom", "w01", 0));
    EXPECT_NE(s, deriveSeed(1, "mdm", "w01", 0));
    EXPECT_NE(s, deriveSeed(1, "pom", "w02", 0));
    EXPECT_NE(s, deriveSeed(1, "pom", "w01", 1));
    EXPECT_NE(s, 0u);
}

TEST(ConfigFingerprint, DistinguishesSweepPoints)
{
    SystemConfig a = SystemConfig::singleCore();
    SystemConfig b = a;
    EXPECT_EQ(configFingerprint(a, 1.0), configFingerprint(b, 1.0));
    b.m2WriteScale = 2.0;
    EXPECT_NE(configFingerprint(a, 1.0), configFingerprint(b, 1.0));
    b = a;
    b.stc.capacityBytes *= 2;
    EXPECT_NE(configFingerprint(a, 1.0), configFingerprint(b, 1.0));
    b = a;
    b.core.instrQuota += 1;
    EXPECT_NE(configFingerprint(a, 1.0), configFingerprint(b, 1.0));
    EXPECT_NE(configFingerprint(a, 1.0),
              configFingerprint(a, 0.5));
}

namespace
{

/** @return configJson(cfg) as ordered (name, value) pairs, with
 *  true/false read as 1/0. */
std::vector<std::pair<std::string, double>>
jsonFields(const SystemConfig &cfg)
{
    std::vector<std::pair<std::string, double>> out;
    std::string json = configJson(cfg);
    std::size_t pos = 0;
    while ((pos = json.find('"', pos)) != std::string::npos) {
        std::size_t close = json.find('"', pos + 1);
        std::string name = json.substr(pos + 1, close - pos - 1);
        std::size_t val = close + 3; // skip `": `
        std::size_t end = json.find_first_of(",}", val);
        std::string text = json.substr(val, end - val);
        out.emplace_back(name, text == "true"    ? 1.0
                               : text == "false" ? 0.0
                                                 : std::stod(text));
        pos = end;
    }
    return out;
}

} // anonymous namespace

TEST(ConfigFields, EveryRowFingerprintsRendersAndRoundTrips)
{
    const SystemConfig base = SystemConfig::quadCore();
    const std::uint64_t base_fp = configFingerprint(base, 1.0);
    const auto rows = jsonFields(base);
    // One manifest member per leaf field of SystemConfig (the
    // table's static_assert pins the count to the struct).
    ASSERT_EQ(rows.size(), 23u);
    std::set<std::uint64_t> fps{base_fp};
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto &[name, v] = rows[r];
        SCOPED_TRACE(name);
        EXPECT_TRUE(isSweepConfigKey(name));

        // Bools flip; numbers move by one.
        double moved = v >= 1.0 ? v - 1.0 : v + 1.0;
        SystemConfig b = base;
        applySweepConfigKey(b, name, moved);
        // The value round-trips into exactly this manifest member...
        auto after = jsonFields(b);
        ASSERT_EQ(after.size(), rows.size());
        for (std::size_t o = 0; o < rows.size(); ++o) {
            EXPECT_EQ(after[o].first, rows[o].first);
            EXPECT_EQ(after[o].second, o == r ? moved : rows[o].second);
        }
        // ...and moves the fingerprint to a value no other row
        // reaches.
        EXPECT_TRUE(fps.insert(configFingerprint(b, 1.0)).second);

        applySweepConfigKey(b, name, v);
        EXPECT_EQ(configFingerprint(b, 1.0), base_fp);
    }
}

TEST(ConfigFields, FingerprintsArePinned)
{
    // Run identity keys, DetSan keys, AloneIpcCache keys and sweep
    // journals all embed these values: the table's rows must keep
    // this fold order.
    EXPECT_EQ(configFingerprint(SystemConfig::quadCore(), 1.0),
              7314866354450131983ull);
    EXPECT_EQ(configFingerprint(SystemConfig::singleCore(), 1.0),
              2002367233882215551ull);
}

TEST(ConfigFields, ArgsParseByFieldType)
{
    Config args;
    args.parsePair("program=mcf");
    args.parsePair("instr=12345");
    args.parsePair("m2_write_scale=2.5");
    args.parsePair("model_st_traffic=false");
    args.parsePair("alloc_seed=18446744073709551615");
    SystemConfig cfg = SystemConfig::singleCore();
    applyConfigArgs(cfg, args, {"program"});
    EXPECT_EQ(cfg.core.instrQuota, 12345u);
    EXPECT_EQ(cfg.m2WriteScale, 2.5);
    EXPECT_FALSE(cfg.modelStTraffic);
    EXPECT_EQ(cfg.allocSeed, UINT64_MAX);
}

TEST(ConfigFieldsDeathTest, RejectsUnknownKeysAndUnrepresentableValues)
{
    SystemConfig cfg = SystemConfig::singleCore();
    Config typo;
    typo.parsePair("minbenfit=4");
    EXPECT_DEATH(applyConfigArgs(cfg, typo, {"program"}),
                 "unknown config key 'minbenfit'");
    Config wrap;
    wrap.parsePair("num_channels=4294967297");
    EXPECT_DEATH(applyConfigArgs(cfg, wrap, {}),
                 "num_channels': '4294967297' is not an integer");
    EXPECT_DEATH(applySweepConfigKey(cfg, "msamp", 1e300),
                 "needs a non-negative integer below 2\\^64");
    EXPECT_DEATH(applySweepConfigKey(cfg, "num_regions", -1.0),
                 "needs a non-negative integer");
    EXPECT_DEATH(applySweepConfigKey(cfg, "stc_kb", 2.0),
                 "unknown config key 'stc_kb'");
}

TEST(AloneCache, ComputesOnceAndDedupsConcurrentRequests)
{
    AloneIpcCache cache;
    std::atomic<int> computes{0};
    ThreadPool pool(8);
    for (int i = 0; i < 32; ++i) {
        pool.submit([&cache, &computes]() {
            double v = cache.getOrCompute("k", [&computes]() {
                ++computes;
                return 42.0;
            });
            EXPECT_EQ(v, 42.0);
        });
    }
    pool.wait();
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(Jobs, EnvAndArgsParsing)
{
    ::setenv("PROFESS_JOBS", "5", 1);
    EXPECT_EQ(ParallelRunner::jobsFromEnv(), 5u);
    const char *argv1[] = {"bench", "--jobs", "3"};
    EXPECT_EQ(ParallelRunner::jobsFromArgs(
                  3, const_cast<char **>(argv1)),
              3u);
    const char *argv2[] = {"bench", "--jobs=7"};
    EXPECT_EQ(ParallelRunner::jobsFromArgs(
                  2, const_cast<char **>(argv2)),
              7u);
    const char *argv3[] = {"bench", "-j", "2"};
    EXPECT_EQ(ParallelRunner::jobsFromArgs(
                  3, const_cast<char **>(argv3)),
              2u);
    const char *argv4[] = {"bench"};
    EXPECT_EQ(ParallelRunner::jobsFromArgs(
                  1, const_cast<char **>(argv4)),
              5u); // falls back to PROFESS_JOBS
    ::unsetenv("PROFESS_JOBS");
    EXPECT_GE(ParallelRunner::jobsFromEnv(), 1u);
}

/**
 * The tentpole guarantee: a mixed batch (multi-program mixes under
 * Pom, Mdm and ProFess, plus a single-program sweep job) produces
 * bit-identical metrics serially (--jobs 1) and with 8 workers.
 */
TEST(Differential, SerialVsParallelBitIdentical)
{
    std::vector<RunJob> batch;
    const WorkloadSpec *w01 = findWorkload("w01");
    const WorkloadSpec *w05 = findWorkload("w05");
    ASSERT_NE(w01, nullptr);
    ASSERT_NE(w05, nullptr);
    for (const char *policy : {"pom", "mdm", "profess"}) {
        batch.push_back(multiJob(quickQuad(), policy, *w01));
        batch.push_back(multiJob(quickQuad(), policy, *w05));
    }
    // A sweep-style single-program job with a distinct config.
    SystemConfig sweep = quickSingle();
    sweep.m2WriteScale = 2.0;
    batch.push_back(singleJob(sweep, "mdm", "mcf", 2));

    // Fresh caches per runner: the reference runs themselves must
    // be reproduced identically, not shared via memoization.
    AloneIpcCache serial_cache, parallel_cache;
    ParallelRunner serial(1, &serial_cache);
    serial.setProgress(false);
    ParallelRunner parallel(8, &parallel_cache);
    parallel.setProgress(false);

    std::vector<MultiMetrics> a = serial.run(batch);
    std::vector<MultiMetrics> b = parallel.run(batch);
    ASSERT_EQ(a.size(), batch.size());
    ASSERT_EQ(b.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i) + " (" +
                     batch[i].policy + "/" + batch[i].label + ")");
        EXPECT_TRUE(a[i].run.completed);
        expectIdentical(a[i], b[i]);
    }

    // And a second parallel execution is stable against schedule
    // jitter (completion order differs run to run).
    std::vector<MultiMetrics> c = parallel.run(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdentical(b[i], c[i]);
}

TEST(Differential, JobSeedIndependentOfBatchPosition)
{
    // Reordering a batch must not change any job's result.
    const WorkloadSpec *w02 = findWorkload("w02");
    ASSERT_NE(w02, nullptr);
    RunJob jm = multiJob(quickQuad(), "mdm", *w02);
    RunJob jp = multiJob(quickQuad(), "pom", *w02);

    AloneIpcCache c1, c2;
    ParallelRunner r1(2, &c1), r2(2, &c2);
    r1.setProgress(false);
    r2.setProgress(false);
    std::vector<MultiMetrics> ab = r1.run({jm, jp});
    std::vector<MultiMetrics> ba = r2.run({jp, jm});
    expectIdentical(ab[0], ba[1]);
    expectIdentical(ab[1], ba[0]);
}

TEST(ParallelRunner, SharedCacheSkipsDuplicateReferenceRuns)
{
    // Two mixes sharing programs under one policy: the cache must
    // end up with one entry per distinct (policy, program) pair.
    const WorkloadSpec *w01 = findWorkload("w01");
    ASSERT_NE(w01, nullptr);
    AloneIpcCache cache;
    ParallelRunner runner(4, &cache);
    runner.setProgress(false);
    std::vector<RunJob> batch = {
        multiJob(quickQuad(), "pom", *w01),
        multiJob(quickQuad(), "pom", *w01, /*sweep_point=*/1),
    };
    std::vector<MultiMetrics> r = runner.run(batch);
    std::size_t distinct = 0;
    {
        std::vector<std::string> seen;
        for (const char *p : w01->programs) {
            std::string s(p);
            bool dup = false;
            for (const auto &q : seen)
                dup = dup || q == s;
            if (!dup) {
                seen.push_back(s);
                ++distinct;
            }
        }
    }
    EXPECT_EQ(cache.size(), distinct);
    // Both sweep points see identical reference IPCs...
    for (std::size_t i = 0; i < r[0].aloneIpc.size(); ++i)
        EXPECT_EQ(r[0].aloneIpc[i], r[1].aloneIpc[i]);
    // ...but distinct mix seeds (sweepPoint differs).
    EXPECT_NE(deriveSeed(1, "pom", "w01", 0),
              deriveSeed(1, "pom", "w01", 1));
}

TEST(ParallelRunner, ForEachCoversAllIndices)
{
    ParallelRunner runner(4);
    runner.setProgress(false);
    std::vector<int> hits(64, 0);
    runner.forEach(hits.size(),
                   [&hits](std::size_t i) { hits[i] = 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelRunner, PerWorkerQueueAuditUnderJobs)
{
    // Satellite of the scenario PR: the EventQueue extraction-order
    // audit must hold on every parallel worker's private queue, not
    // just the serial path.  Run under TSan in ci.sh stage 1: the
    // concurrent audit bookkeeping (audit::checksRun() is a relaxed
    // atomic) must be race-free across workers.
    std::uint64_t audits_before = audit::checksRun();
    ParallelRunner runner(8);
    runner.setProgress(false);
    std::atomic<unsigned> audited{0};
    runner.forEach(8, [&audited](std::size_t i) {
        SystemConfig c = SystemConfig::singleCore();
        c.core.instrQuota = 30000;
        c.core.warmupInstr = 10000;
        std::vector<std::unique_ptr<trace::TraceSource>> src;
        src.push_back(trace::makeSpecSource(
            "mcf", trace::defaultScale, 3 + i));
        System sys(c, "pom", std::move(src));
        ASSERT_TRUE(sys.run());
        sys.eventQueue().auditInvariants();
        ++audited;
    });
    EXPECT_EQ(audited.load(), 8u);
    EXPECT_GT(audit::checksRun(), audits_before);
}

TEST(ParallelRunner, ConcurrentConstructionSharesSetupTables)
{
    // Workers build Systems at once: some with the same HotspotPattern
    // and PageAllocator table keys, some with keys of their own
    // (another program, core count or allocator seed).  Under TSan in
    // ci.sh stage 1 this covers the process-wide setup-table caches.
    // Every job must match the same job run alone afterwards.
    const char *programs[] = {"soplex", "omnetpp", "mcf", "milc"};
    auto runJob = [&programs](std::size_t i) {
        SystemConfig c = i % 3 == 2 ? SystemConfig::quadCore()
                                    : SystemConfig::singleCore();
        c.core.instrQuota = 20000;
        c.core.warmupInstr = 10000;
        c.allocSeed = 7 + i % 2;
        unsigned cores = i % 3 == 2 ? 4 : 1;
        std::vector<std::unique_ptr<trace::TraceSource>> src;
        for (unsigned p = 0; p < cores; ++p)
            src.push_back(trace::makeSpecSource(
                programs[(i + p) % 4], trace::defaultScale, 5 + p));
        System sys(c, "profess", std::move(src));
        EXPECT_TRUE(sys.run());
        std::vector<double> ipc;
        for (unsigned p = 0; p < cores; ++p)
            ipc.push_back(sys.core(p).ipcAtQuota());
        return ipc;
    };
    constexpr std::size_t jobs = 12;
    std::vector<std::vector<double>> parallel(jobs);
    ParallelRunner runner(4);
    runner.setProgress(false);
    runner.forEach(jobs, [&](std::size_t i) { parallel[i] = runJob(i); });
    for (std::size_t i = 0; i < jobs; ++i)
        EXPECT_EQ(parallel[i], runJob(i)) << "job " << i;
}
