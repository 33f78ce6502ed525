/**
 * @file
 * Quickstart: build a single-core hybrid-memory system, run one
 * SPEC-like workload under ProFess, and print the headline
 * statistics.
 *
 * Usage: quickstart [program=<name>] [policy=<name>] [<field>=<v>...]
 *        (<field>: a SystemConfig field, src/sim/config_fields.cc)
 */

#include <cstdio>

#include "common/config.hh"
#include "sim/experiment.hh"

using namespace profess;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    std::string program = cfg.getString("program", "soplex");
    std::string policy = cfg.getString("policy", "profess");

    sim::SystemConfig sys = sim::SystemConfig::singleCore();
    sys.core.instrQuota = sim::ExperimentRunner::instrFromEnv(2'000'000);
    sim::applyConfigArgs(sys, cfg, {"program", "policy"});

    sim::ExperimentRunner runner(sys);
    std::printf("running %s under %s for %llu instructions...\n",
                program.c_str(), policy.c_str(),
                static_cast<unsigned long long>(sys.core.instrQuota));
    sim::RunResult r = runner.run(policy, {program});

    std::printf("\n=== %s / %s ===\n", program.c_str(),
                policy.c_str());
    std::printf("  IPC                 : %.3f\n", r.ipc[0]);
    std::printf("  simulated time      : %.3f ms\n",
                r.seconds * 1e3);
    std::printf("  memory requests     : %llu\n",
                static_cast<unsigned long long>(r.servedTotal));
    std::printf("  served from M1      : %.1f%%\n",
                100.0 * r.m1Fraction);
    std::printf("  swaps               : %llu (%.2f%% of requests)\n",
                static_cast<unsigned long long>(r.swaps),
                100.0 * r.swapFraction);
    std::printf("  STC hit rate        : %.1f%%\n",
                100.0 * r.stcHitRate);
    std::printf("  mean read latency   : %.1f ns\n",
                r.meanReadLatencyNs);
    std::printf("  memory power        : %.3f W\n", r.watts);
    std::printf("  row hit rate        : %.1f%%\n",
                100.0 * r.rowHitRate);
    std::printf("  writes landing in M2: %.1f%%\n",
                100.0 * r.m2WriteFraction);
    std::printf("  energy efficiency   : %.3e req/s/W\n",
                sim::energyEfficiency(r.servedTotal, r.joules));
    return 0;
}
