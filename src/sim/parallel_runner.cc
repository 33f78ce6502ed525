#include "sim/parallel_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <unistd.h>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace profess
{

namespace sim
{

namespace
{

/** Serializes progress lines from concurrent workers. */
std::mutex progress_mu;

bool
progressDefault()
{
    const char *p = std::getenv("PROFESS_PROGRESS");
    if (p != nullptr && *p != '\0')
        return std::strcmp(p, "0") != 0;
    return isatty(STDERR_FILENO) != 0;
}

} // anonymous namespace

RunJob
multiJob(const SystemConfig &cfg, const std::string &policy,
         const WorkloadSpec &workload, std::uint64_t sweep_point)
{
    RunJob j;
    j.cfg = cfg;
    j.policy = policy;
    j.programs.assign(workload.programs.begin(),
                      workload.programs.end());
    j.label = workload.name;
    j.sweepPoint = sweep_point;
    j.slowdowns = true;
    return j;
}

RunJob
singleJob(const SystemConfig &cfg, const std::string &policy,
          const std::string &program, std::uint64_t sweep_point)
{
    RunJob j;
    j.cfg = cfg;
    j.policy = policy;
    j.programs = {program};
    j.label = program;
    j.sweepPoint = sweep_point;
    return j;
}

ParallelRunner::ParallelRunner(unsigned jobs, AloneIpcCache *cache)
    : jobs_(jobs == 0 ? jobsFromEnv() : jobs),
      cache_(cache ? cache : &AloneIpcCache::global()),
      progress_(progressDefault())
{
}

unsigned
ParallelRunner::jobsFromEnv()
{
    return envInt<unsigned>("PROFESS_JOBS",
                            ThreadPool::defaultWorkers(), 1);
}

unsigned
ParallelRunner::jobsFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const char *val = nullptr;
        if (std::strncmp(a, "--jobs=", 7) == 0) {
            val = a + 7;
        } else if (std::strcmp(a, "--jobs") == 0 ||
                   std::strcmp(a, "-j") == 0) {
            fatal_if(i + 1 >= argc, "%s requires a value", a);
            val = argv[i + 1];
        }
        if (val != nullptr)
            return parseInt<unsigned>(val, "--jobs", 1);
    }
    return jobsFromEnv();
}

MultiMetrics
ParallelRunner::runOne(const RunJob &job)
{
    ExperimentRunner runner(job.cfg, job.footprintScale, cache_);
    std::string label =
        !job.label.empty() ? job.label : [&job]() {
            std::string l;
            for (const auto &p : job.programs)
                l += (l.empty() ? "" : "+") + p;
            return l;
        }();
    std::uint64_t seed =
        job.seed != 0 ? job.seed
                      : deriveSeed(job.baseSeed, job.policy, label,
                                   job.sweepPoint);
    // Telemetry label: distinguish sweep points sharing a mix.
    std::string tlabel = label;
    if (job.sweepPoint != 0)
        tlabel += "_s" + std::to_string(job.sweepPoint);
    MultiMetrics m;
    m.run = runner.run(job.policy, job.programs, seed, tlabel);
    if (job.slowdowns) {
        // Stand-alone references use their own fixed per-(config,
        // policy, program) seeds so every mix and sweep point that
        // shares a config shares the cached run.
        for (const auto &p : job.programs)
            m.aloneIpc.push_back(runner.aloneIpc(job.policy, p));
        m.slowdown = slowdowns(m.aloneIpc, m.run.ipc);
        m.weightedSpeedup = weightedSpeedup(m.slowdown);
        m.maxSlowdown = unfairness(m.slowdown);
        m.efficiency =
            energyEfficiency(m.run.servedTotal, m.run.joules);
    }
    return m;
}

MultiMetrics
ParallelRunner::timedJob(const RunJob &job, std::size_t index,
                         std::size_t total)
{
    auto t0 = std::chrono::steady_clock::now();
    MultiMetrics m = runOne(job);
    if (progress_) {
        double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::size_t k = ++done_;
        std::lock_guard<std::mutex> lk(progress_mu);
        std::fprintf(stderr,
                     "[profess %zu/%zu] %s/%s%s done in %.2fs\n", k,
                     total,
                     job.label.empty() ? "mix" : job.label.c_str(),
                     job.policy.c_str(),
                     job.sweepPoint != 0 ? "*" : "", secs);
        (void)index;
    }
    return m;
}

std::vector<MultiMetrics>
ParallelRunner::run(const std::vector<RunJob> &batch)
{
    std::vector<MultiMetrics> results(batch.size());
    done_.store(0);
    if (jobs_ <= 1) {
        // Serial path: everything inline, in submission order.
        for (std::size_t i = 0; i < batch.size(); ++i)
            results[i] = timedJob(batch[i], i, batch.size());
        return results;
    }
    ThreadPool pool(jobs_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        pool.submit([this, &batch, &results, i]() {
            results[i] = timedJob(batch[i], i, batch.size());
        });
    }
    pool.wait();
    return results;
}

void
ParallelRunner::forEach(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (jobs_ <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(jobs_);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i]() { fn(i); });
    pool.wait();
}

} // namespace sim

} // namespace profess
