/**
 * @file
 * Capacity planning: how much DRAM does a hybrid memory need?
 *
 * Sweeps the M1:M2 capacity ratio (Sec. 5.2) for one program and
 * prints IPC, M1 service fraction and memory power under a chosen
 * policy - the kind of question a system architect would ask this
 * library ("can I halve DRAM and keep 90% of performance?").
 *
 * Usage: capacity_planning [program=milc] [policy=profess]
 *                          [<field>=<v>...]
 *        (<field>: a SystemConfig field, src/sim/config_fields.cc)
 *        warmup defaults to instr/2; each point sets slots_per_group
 *        and m1_bytes_per_channel itself.
 */

#include <cstdio>

#include "common/config.hh"
#include "sim/experiment.hh"

using namespace profess;

namespace
{

struct RatioPoint
{
    const char *label;
    unsigned slots;
    std::uint64_t m1Bytes;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    std::string program = cfg.getString("program", "milc");
    std::string policy = cfg.getString("policy", "profess");

    sim::SystemConfig base = sim::SystemConfig::singleCore();
    base.core.instrQuota = sim::ExperimentRunner::instrFromEnv(2'000'000);
    sim::applyConfigArgs(base, cfg, {"program", "policy"});
    if (cfg.entries().count("warmup") == 0)
        base.core.warmupInstr = base.core.instrQuota / 2;

    const RatioPoint points[] = {
        {"1:4 ", 5, 2 * MiB},
        {"1:8 ", 9, 1 * MiB},
        {"1:16", 17, 512 * KiB},
    };

    std::printf("capacity sweep for %s under %s\n", program.c_str(),
                policy.c_str());
    std::printf("%-6s %10s %8s %8s %8s %9s\n", "ratio", "M1-bytes",
                "IPC", "M1%", "power-W", "swapFrac");
    double base_ipc = 0.0;
    for (const RatioPoint &pt : points) {
        sim::SystemConfig sys = base;
        sys.slotsPerGroup = pt.slots;
        sys.m1BytesPerChannel = pt.m1Bytes;
        sim::ExperimentRunner runner(sys);
        sim::RunResult r = runner.run(policy, {program});
        if (base_ipc == 0.0)
            base_ipc = r.ipc[0];
        std::printf("%-6s %10llu %8.3f %7.1f%% %8.3f %8.2f%%"
                    "   (%.0f%% of 1:4 IPC)\n",
                    pt.label,
                    static_cast<unsigned long long>(pt.m1Bytes),
                    r.ipc[0], 100.0 * r.m1Fraction, r.watts,
                    100.0 * r.swapFraction,
                    100.0 * r.ipc[0] / base_ipc);
    }
    return 0;
}
