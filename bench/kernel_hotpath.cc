/**
 * @file
 * Simulation-kernel hot-path benchmark: the perf trajectory of the
 * discrete-event core (event queue, hybrid controller, channel
 * timing, core model) measured end-to-end.
 *
 * Runs a fixed matrix — single-core mcf and quad-core w01 under
 * pom/mdm/profess — and reports, per run and in aggregate:
 *
 *   ns/access   wall nanoseconds per served 64-B demand access
 *   events/sec  simulation events executed per wall second
 *   peak RSS    ru_maxrss of the process after all runs
 *
 * Output is JSON (stdout, or --out FILE) so scripts/bench_report.py
 * can record the trajectory in BENCH_kernel.json and the CI
 * perf-smoke step can compare against a checked-in baseline.
 *
 * Flags:
 *   --quick      tiny configuration for CI smoke runs
 *   --out FILE   write JSON to FILE instead of stdout
 *   --label S    annotate the JSON with a label (e.g. "before")
 *   --jobs N     worker count for the DetSan verification pass
 *                (ignored without -DPROFESS_DETSAN=ON)
 *   --trace / --telemetry-out DIR / --epoch-ticks N
 *                shared observability flags (sim/run_telemetry.hh);
 *                used by the CI overhead gate to compare
 *                telemetry-off against telemetry-on wall time
 *
 * Under -DPROFESS_DETSAN=ON the measured serial pass journals each
 * run's event-extraction and epoch-state digests, then a second
 * pass re-runs the whole matrix on a --jobs N thread pool; the
 * detsan Journal cross-checks every digest against the serial
 * pass, proving the matrix bit-identical at any worker count.  A
 * sampler is forced on in DetSan builds (even with telemetry off)
 * so the epoch-state digest always has coverage.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/run_telemetry.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

#if PROFESS_DETSAN
#include "common/detsan.hh"
#include "common/thread_pool.hh"
#endif

using namespace profess;

namespace
{

struct RunSpec
{
    const char *name;
    const char *policy;
    bool quad;
    std::vector<std::string> programs;
};

struct RunNumbers
{
    std::string name;
    std::string policy;
    unsigned cores = 0;
    std::uint64_t accesses = 0;
    std::uint64_t events = 0;
    std::uint64_t swaps = 0;
    double wallNs = 0.0;
    double nsPerAccess = 0.0;
    double eventsPerSec = 0.0;
};

RunNumbers
runOne(const RunSpec &spec, std::uint64_t quota,
       bool verify_pass = false)
{
    sim::SystemConfig cfg = spec.quad
                                ? sim::SystemConfig::quadCore()
                                : sim::SystemConfig::singleCore();
    cfg.core.instrQuota = quota;
    // No warm-up: ns/access should cover every simulated access so
    // the number is comparable across kernel revisions.
    cfg.core.warmupInstr = 0;

    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    std::uint64_t seed =
        sim::deriveSeed(1, spec.policy, spec.name, 0);
    for (std::size_t i = 0; i < spec.programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            spec.programs[i], trace::defaultScale,
            seed + 1009 * (i + 1)));
    }

    sim::System sys(cfg, spec.policy, std::move(sources));

    std::string run_name = std::string(spec.name) + "_" + spec.policy;
    std::unique_ptr<sim::RunTelemetry> telemetry;
    const sim::TelemetryConfig &tc = sim::TelemetryConfig::global();
    if (tc.enabled()) {
        telemetry =
            std::make_unique<sim::RunTelemetry>(tc, run_name);
        sys.attachTelemetry(*telemetry);
    }
#if PROFESS_DETSAN
    // Force a sampler so the epoch-state digest has coverage even
    // when no telemetry consumer is configured.  Sampling is
    // observational only, so results stay bit-identical.
    if (telemetry == nullptr) {
        telemetry =
            std::make_unique<sim::RunTelemetry>(tc, run_name);
        sys.attachTelemetry(*telemetry);
    }
#endif

    auto t0 = std::chrono::steady_clock::now();
    sys.run();
    auto t1 = std::chrono::steady_clock::now();

#if PROFESS_DETSAN
    {
        detsan::RunDigest dig;
        dig.events = sys.eventQueue().executed();
        dig.extraction = sys.eventQueue().detsanDigest();
        if (telemetry->sampler() != nullptr) {
            dig.epochs = telemetry->sampler()->epochs();
            dig.epochState = telemetry->sampler()->detsanDigest();
        }
        detsan::Journal::global().record(
            run_name + "#" + std::to_string(quota), dig);
    }
#endif

    if (telemetry != nullptr && tc.enabled() && !verify_pass) {
        telemetry->finish(spec.policy, spec.name, seed,
                          sim::configJson(cfg), true);
    }

    RunNumbers n;
    n.name = run_name;
    n.policy = spec.policy;
    n.cores = sys.numCores();
    n.accesses = sys.controller().servedTotal();
    n.events = sys.eventQueue().executed();
    n.swaps = sys.controller().swapCount();
    n.wallNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    n.nsPerAccess =
        n.accesses ? n.wallNs / static_cast<double>(n.accesses) : 0.0;
    n.eventsPerSec =
        n.wallNs > 0.0
            ? static_cast<double>(n.events) * 1e9 / n.wallNs
            : 0.0;
    return n;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    logging::configure(argc, argv);
    sim::TelemetryConfig::global().initFromArgs(argc, argv);
    bool quick = false;
    std::string out;
    std::string label = "run";
    unsigned jobs = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--label") == 0 &&
                   i + 1 < argc) {
            label = argv[++i];
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            jobs = parseInt<unsigned>(argv[++i], "--jobs", 1);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--out FILE] "
                         "[--label S] [--jobs N]\n",
                         argv[0]);
            return 2;
        }
    }
#if !PROFESS_DETSAN
    if (jobs != 1) {
        std::fprintf(stderr,
                     "[kernel_hotpath] --jobs only drives the "
                     "DetSan verification pass; build with "
                     "-DPROFESS_DETSAN=ON\n");
    }
#endif

    const std::uint64_t single_quota = quick ? 120'000 : 1'000'000;
    const std::uint64_t quad_quota = quick ? 60'000 : 400'000;

    const sim::WorkloadSpec *w01 = sim::findWorkload("w01");
    if (w01 == nullptr) {
        std::fprintf(stderr, "workload w01 missing\n");
        return 1;
    }

    std::vector<std::string> w01_programs(w01->programs.begin(),
                                          w01->programs.end());
    std::vector<RunSpec> matrix = {
        {"single_mcf", "pom", false, {"mcf"}},
        {"single_mcf", "mdm", false, {"mcf"}},
        {"single_mcf", "profess", false, {"mcf"}},
        {"quad_w01", "pom", true, w01_programs},
        {"quad_w01", "mdm", true, w01_programs},
        {"quad_w01", "profess", true, w01_programs},
    };

    std::vector<RunNumbers> results;
    double total_wall = 0.0;
    std::uint64_t total_acc = 0, total_ev = 0;
    for (const RunSpec &s : matrix) {
        RunNumbers n =
            runOne(s, s.quad ? quad_quota : single_quota);
        total_wall += n.wallNs;
        total_acc += n.accesses;
        total_ev += n.events;
        std::fprintf(stderr,
                     "[kernel_hotpath] %-20s %8.1f ns/access "
                     "%10.0f events/s\n",
                     n.name.c_str(), n.nsPerAccess, n.eventsPerSec);
        results.push_back(std::move(n));
    }

#if PROFESS_DETSAN
    // Verification pass: re-run the whole matrix on a thread pool
    // and let the journal cross-check every digest against the
    // serial measured pass above.  A mismatch is fatal inside
    // Journal::record, so reaching the summary line means every
    // run was bit-identical under --jobs concurrency.
    {
        ThreadPool pool(jobs);
        for (const RunSpec &s : matrix) {
            RunSpec copy = s;
            std::uint64_t quota =
                s.quad ? quad_quota : single_quota;
            pool.submit([copy, quota]() {
                runOne(copy, quota, /*verify_pass=*/true);
            });
        }
        pool.wait();
        const detsan::Journal &journal = detsan::Journal::global();
        std::fprintf(stderr,
                     "[detsan] %zu run identities, %llu "
                     "cross-checked on %u workers: all digests "
                     "identical\n",
                     journal.entries(),
                     static_cast<unsigned long long>(
                         journal.checked()),
                     jobs);
    }
#endif

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);

    std::FILE *f = out.empty() ? stdout : std::fopen(out.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"profess-kernel-bench-v1\",\n");
    std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"peak_rss_kb\": %ld,\n", ru.ru_maxrss);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunNumbers &n = results[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"policy\": \"%s\", "
            "\"cores\": %u, \"accesses\": %llu, \"events\": %llu, "
            "\"swaps\": %llu, \"wall_ns\": %.0f, "
            "\"ns_per_access\": %.3f, \"events_per_sec\": %.0f}%s\n",
            n.name.c_str(), n.policy.c_str(), n.cores,
            static_cast<unsigned long long>(n.accesses),
            static_cast<unsigned long long>(n.events),
            static_cast<unsigned long long>(n.swaps), n.wallNs,
            n.nsPerAccess, n.eventsPerSec,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"total\": {\"accesses\": %llu, \"events\": %llu, "
        "\"wall_ns\": %.0f, \"ns_per_access\": %.3f, "
        "\"events_per_sec\": %.0f}\n",
        static_cast<unsigned long long>(total_acc),
        static_cast<unsigned long long>(total_ev), total_wall,
        total_acc ? total_wall / static_cast<double>(total_acc) : 0.0,
        total_wall > 0.0
            ? static_cast<double>(total_ev) * 1e9 / total_wall
            : 0.0);
    std::fprintf(f, "}\n");
    if (f != stdout)
        std::fclose(f);
    return 0;
}
