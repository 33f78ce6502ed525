/**
 * @file
 * Writing a custom migration policy against the public API.
 *
 * Implements "EagerReuse", a ~40-line policy a downstream user might
 * prototype: promote an M2 block once its STC access counter shows
 * at least `k` accesses in the current residency AND the incumbent
 * has seen fewer - a middle ground between CAMEO's threshold-1 and
 * MDM's learned predictions.  The example plugs it into a System via
 * hybrid::HybridController directly (the policy registry in
 * sim::System covers only built-ins) and races it against three
 * built-ins on the same workload.
 *
 * Usage: custom_policy [program=soplex] [k=4] [<field>=<v>...]
 *        (<field>: a SystemConfig field, src/sim/config_fields.cc)
 *        warmup defaults to instr/2.
 */

#include <cstdio>

#include "common/config.hh"
#include "policy/policy.hh"
#include "sim/experiment.hh"

using namespace profess;

namespace
{

/** The custom policy: residency-count race with the incumbent. */
class EagerReusePolicy : public policy::MigrationPolicy
{
  public:
    explicit EagerReusePolicy(unsigned k) : k_(k) {}

    const char *name() const override { return "eager-reuse"; }
    unsigned writeWeight() const override { return 8; }

    policy::Decision
    onM2Access(const policy::AccessInfo &info) override
    {
        const hybrid::StcMeta &m = *info.meta;
        unsigned mine = m.ac[info.slot];
        unsigned incumbent = m.ac[info.m1Slot];
        if (mine >= k_ && mine > incumbent)
            return policy::Decision::Swap;
        return policy::Decision::NoSwap;
    }

  private:
    unsigned k_;
};

/** Run one program under an externally supplied policy. */
sim::RunResult
runWithPolicy(const sim::SystemConfig &cfg,
              policy::MigrationPolicy &pol,
              const std::string &program)
{
    // Assemble the system pieces by hand - the same wiring
    // sim::System does internally, using only public headers.
    EventQueue eq;
    mem::MemorySystemConfig mc;
    mc.numChannels = cfg.numChannels;
    mc.m1BytesPerChannel = cfg.m1BytesPerChannel;
    mc.m2BytesPerChannel = cfg.m2BytesPerChannel;
    mem::MemorySystem memory(eq, mc);

    hybrid::HybridLayout layout = hybrid::HybridLayout::build(
        cfg.m1BytesPerChannel, cfg.m2BytesPerChannel,
        cfg.numChannels, cfg.numRegions, cfg.slotsPerGroup);
    os::PageAllocator alloc(layout.numGroups, cfg.slotsPerGroup,
                            cfg.numRegions, 1, cfg.allocSeed);

    hybrid::HybridController::Params hp;
    hp.stc = cfg.stc;
    hp.numPrograms = 1;
    hybrid::HybridController ctrl(eq, memory, layout, hp, pol,
                                  alloc);

    struct Port : public cpu::MemPort
    {
        os::PageAllocator *alloc;
        hybrid::HybridController *ctrl;
        void
        issue(ProgramId p, Addr vaddr, bool w,
              InlineCallback done) override
        {
            std::uint64_t frame =
                alloc->translate(p, vaddr / os::pageBytes);
            ctrl->access(p,
                         frame * os::pageBytes +
                             vaddr % os::pageBytes,
                         w, std::move(done));
        }
    } port;
    port.alloc = &alloc;
    port.ctrl = &ctrl;

    auto source =
        trace::makeSpecSource(program, trace::defaultScale, 1);
    cpu::CoreModel core(eq, cfg.core, *source, port, 0);
    core.start();
    ctrl.startPeriodic();
    eq.run([&]() { return core.quotaReached(); });
    ctrl.stopPeriodic();

    sim::RunResult r;
    r.policy = pol.name();
    r.ipc.push_back(core.ipcAtQuota());
    r.servedTotal = ctrl.servedTotal();
    r.swaps = ctrl.swapCount();
    r.stcHitRate = ctrl.stcHitRate();
    const auto &ps = ctrl.programStats(0);
    r.m1Fraction =
        ps.served ? static_cast<double>(ps.servedFromM1) /
                        static_cast<double>(ps.served)
                  : 0.0;
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    std::string program = cfg.getString("program", "soplex");
    unsigned k = parseInt<unsigned>(cfg.getString("k", "4"), "k");

    sim::SystemConfig sys = sim::SystemConfig::singleCore();
    sys.core.instrQuota = sim::ExperimentRunner::instrFromEnv(2'000'000);
    sim::applyConfigArgs(sys, cfg, {"program", "k"});
    if (cfg.entries().count("warmup") == 0)
        sys.core.warmupInstr = sys.core.instrQuota / 2;

    std::printf("custom EagerReuse(k=%u) vs built-ins on %s\n\n", k,
                program.c_str());
    std::printf("%-12s %8s %8s %8s %9s\n", "policy", "IPC", "M1%",
                "swaps", "swapFrac");

    EagerReusePolicy eager(k);
    sim::RunResult r = runWithPolicy(sys, eager, program);
    std::printf("%-12s %8.3f %7.1f%% %8llu %8.2f%%\n", r.policy.c_str(),
                r.ipc[0], 100.0 * r.m1Fraction,
                static_cast<unsigned long long>(r.swaps),
                r.servedTotal
                    ? 100.0 * static_cast<double>(r.swaps) /
                          static_cast<double>(r.servedTotal)
                    : 0.0);

    sim::ExperimentRunner runner(sys);
    for (const char *pol : {"cameo", "pom", "mdm"}) {
        sim::RunResult b = runner.run(pol, {program});
        std::printf("%-12s %8.3f %7.1f%% %8llu %8.2f%%\n", pol,
                    b.ipc[0], 100.0 * b.m1Fraction,
                    static_cast<unsigned long long>(b.swaps),
                    100.0 * b.swapFraction);
    }
    return 0;
}
