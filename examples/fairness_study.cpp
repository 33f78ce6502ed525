/**
 * @file
 * Fairness study: the paper's headline experiment on one workload.
 *
 * Runs a Table 10 multiprogrammed workload under PoM, MDM and
 * ProFess on the quad-core system and prints per-program slowdowns,
 * weighted speedup, unfairness (max slowdown) and energy
 * efficiency - the Sec. 4.3 figures of merit.
 *
 * Usage: fairness_study [workload=w09] [<field>=<v>...]
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
    std::string wname = cfg.getString("workload", "w09");
    const sim::WorkloadSpec *w = sim::findWorkload(wname);
    fatal_if(w == nullptr, "unknown workload '%s' (w01..w19)",
             wname.c_str());

    sim::SystemConfig sys = sim::SystemConfig::quadCore();
    sys.core.instrQuota = sim::ExperimentRunner::instrFromEnv(2'000'000);
    sim::applyConfigArgs(sys, cfg, {"workload"});
    sim::ExperimentRunner runner(sys);

    std::printf("workload %s: %s %s %s %s\n", wname.c_str(),
                w->programs[0], w->programs[1], w->programs[2],
                w->programs[3]);
    std::printf("%-9s %28s %8s %8s %10s %9s\n", "policy",
                "slowdowns", "maxSdn", "wSpeed", "eff(r/J)",
                "swapFrac");

    for (const char *pol : {"pom", "mdm", "profess"}) {
        sim::MultiMetrics m = runner.runMulti(pol, *w);
        char sdn[64];
        std::snprintf(sdn, sizeof(sdn),
                      "%5.2f %5.2f %5.2f %5.2f", m.slowdown[0],
                      m.slowdown[1], m.slowdown[2], m.slowdown[3]);
        std::printf("%-9s %28s %8.2f %8.3f %10.3e %8.2f%%\n", pol,
                    sdn, m.maxSlowdown, m.weightedSpeedup,
                    m.efficiency, 100.0 * m.run.swapFraction);
    }

    std::printf("\nThe paper's story (Sec. 5.4): MDM lifts everyone "
                "by making better swaps;\nProFess additionally "
                "trades speed of lightly-affected programs for the\n"
                "most-suffering one, cutting the max slowdown "
                "further.\n");
    return 0;
}
