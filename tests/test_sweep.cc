/**
 * @file
 * SweepDriver tests: spec parsing and expansion, the sweep-axis
 * grid, and the crash-safety contract — an interrupted sweep
 * (cooperative preemption, a corrupted trailing journal line, or a
 * SIGKILL mid-sweep) resumes to byte-identical final outputs
 * (journal + merged exposition) at any worker count.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/run_telemetry.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

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

std::string
tempBase(const std::string &tag)
{
    return ::testing::TempDir() + "profess_sweep_" + tag + "_" +
           std::to_string(::getpid());
}

std::string
writeSpecFile(const std::string &tag, const std::string &content)
{
    std::string path = tempBase(tag) + ".sweep";
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fputs(content.c_str(), f);
    std::fclose(f);
    return path;
}

/** The small grid every crash-safety test runs: 4 jobs. */
SweepSpec
smokeSpec(const std::string &tag)
{
    return SweepSpec::fromFile(writeSpecFile(
        tag, "# smoke grid\n"
             "preset=single\n"
             "policy=always,never\n"
             "workload=mcf\n"
             "seed=1,2\n"
             "instr=30000 warmup=5000\n"
             "slowdowns=1\n"));
}

/** Run `spec` to completion in a fresh directory; return outDir. */
std::string
runFull(const SweepSpec &spec, const std::string &tag, unsigned jobs)
{
    SweepDriver::Options opts;
    opts.outDir = tempBase(tag);
    opts.jobs = jobs;
    SweepDriver driver(spec, opts);
    EXPECT_TRUE(driver.run());
    EXPECT_EQ(driver.executedRuns(), driver.totalRuns());
    return opts.outDir;
}

} // anonymous namespace

TEST(SweepSpec, ParsesAndExpands)
{
    SweepSpec spec = smokeSpec("parse");
    EXPECT_EQ(spec.preset, "single");
    EXPECT_EQ(spec.policies,
              (std::vector<std::string>{"always", "never"}));
    EXPECT_EQ(spec.mixes, (std::vector<std::string>{"mcf"}));
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_TRUE(spec.slowdowns);
    EXPECT_EQ(spec.numSweepPoints(), 1u);
    EXPECT_EQ(spec.numRuns(), 4u);

    SystemConfig cfg = spec.configAt(0);
    EXPECT_EQ(cfg.core.instrQuota, 30000u);
    EXPECT_EQ(cfg.core.warmupInstr, 5000u);

    std::vector<RunJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u);
    // Canonical order: mix, then policy, then seed innermost.
    EXPECT_EQ(jobs[0].policy, "always");
    EXPECT_EQ(jobs[0].label, "mcf_r1");
    EXPECT_EQ(jobs[0].baseSeed, 1u);
    EXPECT_EQ(jobs[1].label, "mcf_r2");
    EXPECT_EQ(jobs[2].policy, "never");
    // No swept axis: sweepPoint stays 0 (no "_s" label suffix).
    for (const RunJob &j : jobs) {
        EXPECT_EQ(j.sweepPoint, 0u);
        EXPECT_TRUE(j.slowdowns);
        EXPECT_EQ(j.programs, (std::vector<std::string>{"mcf"}));
    }

    // Fingerprint is stable for equal specs and sensitive to any
    // field change.
    SweepSpec again = smokeSpec("parse2");
    EXPECT_EQ(spec.fingerprint(), again.fingerprint());
    again.seeds.push_back(3);
    EXPECT_NE(spec.fingerprint(), again.fingerprint());
}

TEST(SweepSpec, SweptAxisExpandsPerPoint)
{
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "axis", "preset=quad policy=pom workload=w01\n"
                "instr=10000 warmup=1000\n"
                "sweep=min_benefit:4,8\n"));
    EXPECT_EQ(spec.sweepKey, "min_benefit");
    EXPECT_EQ(spec.numSweepPoints(), 2u);
    EXPECT_EQ(spec.numRuns(), 2u);
    EXPECT_EQ(spec.configAt(0).minBenefit, 4u);
    EXPECT_EQ(spec.configAt(1).minBenefit, 8u);
    // Fixed overrides apply at every point.
    EXPECT_EQ(spec.configAt(1).core.instrQuota, 10000u);

    std::vector<RunJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    // Swept points number from 1 so each gets a distinct "_s<p>"
    // telemetry suffix downstream.
    EXPECT_EQ(jobs[0].sweepPoint, 1u);
    EXPECT_EQ(jobs[1].sweepPoint, 2u);
    EXPECT_EQ(jobs[0].cfg.minBenefit, 4u);
    EXPECT_EQ(jobs[1].cfg.minBenefit, 8u);
    EXPECT_EQ(jobs[0].label, "w01"); // one seed: no _r suffix
}

TEST(SweepSpec, ProgramListMixResolves)
{
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "mix", "preset=quad policy=pom workload=mcf+lbm\n"));
    std::vector<RunJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].programs,
              (std::vector<std::string>{"mcf", "lbm"}));
}

TEST(SweepSpecDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "badkey", "policy=pom workload=mcf "
                               "frobnicate=3\n")),
                 "unknown key");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "badmix", "policy=pom workload=notaprog\n")),
                 "neither");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "twoaxes", "policy=pom workload=mcf\n"
                                "sweep=msamp:1,2\n"
                                "sweep=min_benefit:4,8\n")),
                 "at most one");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "fixedswept", "policy=pom workload=mcf\n"
                                   "msamp=512\nsweep=msamp:1,2\n")),
                 "both fixed and swept");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "nopolicy", "workload=mcf\n")),
                 "no policy");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "fracint", "policy=pom workload=mcf\n"
                                "min_benefit=2.5\n")),
                 "non-negative integer");
    // Values the field's type cannot hold are rejected, not
    // truncated: 2^32 + 1 would wrap to 1 channel, and 1e300 has no
    // u64 value at all.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "wrapchan", "policy=pom workload=mcf\n"
                                 "num_channels=4294967297\n")),
                 "num_channels' needs a non-negative integer below "
                 "2\\^32");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "hugemsamp", "policy=pom workload=mcf\n"
                                  "sweep=msamp:512,1e300\n")),
                 "msamp' needs a non-negative integer below 2\\^64");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "boolknob", "policy=pom workload=mcf\n"
                                 "model_st_traffic=2\n")),
                 "needs 0 or 1");
    // Sizes are keyed in bytes (stc_capacity_bytes); no KiB alias.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "stckb", "policy=pom workload=mcf stc_kb=2\n")),
                 "unknown key 'stc_kb'");
}

TEST(SweepSpec, SweepsM1CapacityPerChannel)
{
    // Every SystemConfig field is a sweep key: the M1 size, which
    // no hand-written knob exposed, sweeps like any other.
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "m1axis", "preset=single policy=pom workload=mcf\n"
                  "instr=20000 warmup=5000 slowdowns=0\n"
                  "sweep=m1_bytes_per_channel:524288,2097152\n"));
    EXPECT_EQ(spec.configAt(0).m1BytesPerChannel, 512 * KiB);
    EXPECT_EQ(spec.configAt(1).m1BytesPerChannel, 2 * MiB);
    EXPECT_EQ(spec.configAt(1).m2BytesPerChannel,
              SystemConfig::singleCore().m2BytesPerChannel);

    SweepDriver::Options opts;
    opts.outDir = tempBase("m1axis");
    opts.jobs = 2;
    SweepDriver driver(spec, opts);
    ASSERT_TRUE(driver.run());
    ASSERT_EQ(driver.records().size(), 2u);
    const SweepRunRecord &small = driver.records()[0];
    const SweepRunRecord &large = driver.records()[1];
    EXPECT_TRUE(small.completed);
    EXPECT_TRUE(large.completed);
    // The points are distinct runs: distinct config fingerprints in
    // the identity key, and different simulated behaviour.
    EXPECT_NE(small.key, large.key);
    EXPECT_NE(small.swaps, large.swaps);
}

TEST(SweepDriver, ResumeEqualsUninterrupted)
{
    SweepSpec spec = smokeSpec("resume");
    std::string full_dir = runFull(spec, "resume_full", 2);

    // Cooperative preemption after 2 of 4 runs, then resume.
    SweepDriver::Options opts;
    opts.outDir = tempBase("resume_part");
    opts.jobs = 2;
    opts.maxRuns = 2;
    {
        SweepDriver part(spec, opts);
        EXPECT_FALSE(part.run());
        EXPECT_EQ(part.executedRuns(), 2u);
        EXPECT_EQ(part.resumedRuns(), 0u);
    }
    opts.maxRuns = 0;
    {
        SweepDriver rest(spec, opts);
        EXPECT_TRUE(rest.run());
        EXPECT_EQ(rest.resumedRuns(), 2u);
        EXPECT_EQ(rest.executedRuns(), 2u);
        // Journaled records round-tripped through the resume parse
        // render byte-identically in the canonical rewrite.
        EXPECT_EQ(readFile(rest.journalPath()),
                  readFile(full_dir + "/sweep.journal.jsonl"));
        EXPECT_EQ(readFile(rest.metricsPath()),
                  readFile(full_dir + "/metrics.prom"));
    }
}

TEST(SweepDriver, WorkerCountLeavesNoTrace)
{
    SweepSpec spec = smokeSpec("jobs");
    std::string serial_dir = runFull(spec, "jobs1", 1);
    std::string parallel_dir = runFull(spec, "jobs8", 8);
    std::string j1 = readFile(serial_dir + "/sweep.journal.jsonl");
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, readFile(parallel_dir + "/sweep.journal.jsonl"));
    std::string m1 = readFile(serial_dir + "/metrics.prom");
    EXPECT_FALSE(m1.empty());
    EXPECT_EQ(m1, readFile(parallel_dir + "/metrics.prom"));
}

TEST(SweepDriver, CorruptedTrailingJournalLineRecovers)
{
    SweepSpec spec = smokeSpec("torn");
    std::string full_dir = runFull(spec, "torn_full", 2);

    SweepDriver::Options opts;
    opts.outDir = tempBase("torn_part");
    opts.jobs = 1;
    opts.maxRuns = 2;
    {
        SweepDriver part(spec, opts);
        EXPECT_FALSE(part.run());
    }
    // A crash can tear the trailing journal line mid-write; the
    // loader must drop exactly that line and re-run its job.
    std::string journal =
        opts.outDir + "/sweep.journal.jsonl";
    std::FILE *f = std::fopen(journal.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"i\":2,\"key\":\"truncated mid-wri", f);
    std::fclose(f);

    opts.maxRuns = 0;
    SweepDriver rest(spec, opts);
    EXPECT_TRUE(rest.run());
    EXPECT_EQ(rest.resumedRuns(), 2u);
    EXPECT_EQ(readFile(rest.journalPath()),
              readFile(full_dir + "/sweep.journal.jsonl"));
    EXPECT_EQ(readFile(rest.metricsPath()),
              readFile(full_dir + "/metrics.prom"));
}

namespace
{

/** Overwrite the seed of a journal's first record, or with `last`
 *  of its last record, with `value`. */
void
corruptSeed(const std::string &journal, bool last,
            const std::string &value)
{
    std::string text = readFile(journal);
    std::size_t at = last ? text.rfind("\"seed\":")
                          : text.find("\"seed\":");
    ASSERT_NE(at, std::string::npos);
    at += 7;
    text.replace(at, text.find(',', at) - at, value);
    std::FILE *f = std::fopen(journal.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

} // anonymous namespace

TEST(SweepDriver, OutOfRangeJournalNumberIsTorn)
{
    // strtoull alone read "-1" as 2^64 - 1 and saturated the
    // overflow, so the damaged record was resumed as if sound.  The
    // checked parse rejects the line; as the trailing line it counts
    // as torn and its run re-executes.
    SweepSpec spec = smokeSpec("badnum");
    std::string full_dir = runFull(spec, "badnum_full", 2);
    for (const char *bad : {"-1", "18446744073709551616"}) {
        SweepDriver::Options opts;
        opts.outDir =
            tempBase(std::string("badnum_") + (bad[0] == '-' ? "neg"
                                                             : "big"));
        opts.jobs = 1;
        opts.maxRuns = 2;
        {
            SweepDriver part(spec, opts);
            EXPECT_FALSE(part.run());
        }
        corruptSeed(opts.outDir + "/sweep.journal.jsonl", true, bad);
        opts.maxRuns = 0;
        SweepDriver rest(spec, opts);
        EXPECT_TRUE(rest.run());
        EXPECT_EQ(rest.resumedRuns(), 1u) << bad;
        EXPECT_EQ(readFile(rest.journalPath()),
                  readFile(full_dir + "/sweep.journal.jsonl"))
            << bad;
    }
}

TEST(SweepDriverDeathTest, OutOfRangeNumberMidJournalIsFatal)
{
    SweepSpec spec = smokeSpec("badmid");
    std::string dir = runFull(spec, "badmid_dir", 2);
    corruptSeed(dir + "/sweep.journal.jsonl", false, "-1");
    SweepDriver::Options opts;
    opts.outDir = dir;
    opts.jobs = 1;
    SweepDriver driver(spec, opts);
    EXPECT_DEATH(driver.run(), "corrupt sweep journal line");
}

TEST(SweepDriver, SigkillMidSweepResumesByteIdentical)
{
    SweepSpec spec = smokeSpec("kill");
    std::string full_dir = runFull(spec, "kill_full", 2);

    SweepDriver::Options opts;
    opts.outDir = tempBase("kill_part");
    opts.jobs = 1;

    // The child SIGKILLs itself the instant the first run's journal
    // line is durable — the hardest crash the driver must survive.
    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        SweepDriver victim(spec, opts);
        victim.setRunCallback([](std::size_t done, std::size_t) {
            if (done == 1)
                ::raise(SIGKILL);
        });
        victim.run();
        ::_exit(0); // never reached
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    SweepDriver rest(spec, opts);
    EXPECT_TRUE(rest.run());
    EXPECT_GE(rest.resumedRuns(), 1u);
    EXPECT_EQ(readFile(rest.journalPath()),
              readFile(full_dir + "/sweep.journal.jsonl"));
    EXPECT_EQ(readFile(rest.metricsPath()),
              readFile(full_dir + "/metrics.prom"));
}

TEST(SweepDriverDeathTest, ForeignJournalIsFatal)
{
    SweepSpec spec = smokeSpec("foreign");
    std::string dir = runFull(spec, "foreign_dir", 2);

    // The same directory under a different spec must refuse to
    // "resume" someone else's journal.
    SweepSpec other = spec;
    other.seeds.push_back(3);
    SweepDriver::Options opts;
    opts.outDir = dir;
    opts.jobs = 1;
    SweepDriver driver(other, opts);
    EXPECT_DEATH(driver.run(), "different sweep");
}

TEST(SweepDriver, FreshDiscardsPriorOutputs)
{
    SweepSpec spec = smokeSpec("fresh");
    SweepSpec other = spec;
    other.seeds = {5};

    SweepDriver::Options opts;
    opts.outDir = tempBase("fresh_dir");
    opts.jobs = 2;
    {
        SweepDriver first(spec, opts);
        EXPECT_TRUE(first.run());
    }
    // --fresh makes the incompatible-spec reuse legal.
    opts.fresh = true;
    SweepDriver second(other, opts);
    EXPECT_TRUE(second.run());
    EXPECT_EQ(second.resumedRuns(), 0u);
    EXPECT_EQ(second.executedRuns(), 2u);
}
