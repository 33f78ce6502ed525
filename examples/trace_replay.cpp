/**
 * @file
 * Trace record & replay: deterministic experiment pipelines.
 *
 * 1. Builds an instruction-level synthetic stream, filters it
 *    through the Table 8 L1/L2/L3 hierarchy (cpu::CacheFilterSource)
 *    and records the resulting main-memory trace to a file.
 * 2. Replays the file through the full system twice under two
 *    policies, demonstrating bit-identical inputs for comparisons
 *    (this is how externally captured traces - e.g. converted Pin
 *    traces - plug into the framework).
 *
 * Usage: trace_replay [accesses=200000] [file=/tmp/profess.trace]
 *                     [<field>=<v>...]
 *        (<field>: a SystemConfig field, src/sim/config_fields.cc)
 */

#include <cstdio>

#include "common/config.hh"
#include "cpu/cache_filter.hh"
#include "sim/experiment.hh"
#include "trace/trace_file.hh"

using namespace profess;

int
main(int argc, char **argv)
{
    Config cfg;
    cfg.parseArgs(argc, argv);
    std::uint64_t accesses = cfg.getUint("accesses", 200'000);
    std::string path = cfg.getString("file", "/tmp/profess.trace");

    sim::SystemConfig sys = sim::SystemConfig::singleCore();
    sys.core.instrQuota = 500'000;
    sys.core.warmupInstr = 100'000;
    sim::applyConfigArgs(sys, cfg, {"accesses", "file"});

    // 1. Record: instruction-level stream -> cache hierarchy ->
    //    main-memory trace.
    trace::SyntheticParams sp;
    sp.footprintBytes = 4 * MiB;
    sp.mpki = 500.0; // instruction-level accesses, pre-filter
    sp.writeFraction = 0.3;
    sp.seed = 42;
    auto mix = std::make_unique<trace::MixedPattern>();
    mix->add(0.6, std::make_unique<trace::MultiStreamPattern>(
                      sp.footprintBytes, 8));
    mix->add(0.4, std::make_unique<trace::HotspotPattern>(
                      sp.footprintBytes, 1.0));
    trace::SyntheticTraceSource inner(sp, std::move(mix));
    cpu::CacheFilterSource filtered(inner,
                                    cache::Hierarchy::Params{});
    std::uint64_t written =
        trace::recordTrace(filtered, accesses, path);
    std::printf("recorded %llu post-L3 accesses to %s\n",
                static_cast<unsigned long long>(written),
                path.c_str());
    std::printf("  (consumed %llu instruction-level accesses; L3 "
                "hit rate %.1f%%)\n",
                static_cast<unsigned long long>(
                    filtered.consumed()),
                100.0 * filtered.hierarchy().l3().hitRate());

    // 2. Replay the identical stream under two policies.
    std::printf("\nreplaying under pom and profess:\n");
    for (const char *pol : {"pom", "profess"}) {
        std::vector<std::unique_ptr<trace::TraceSource>> sources;
        sources.push_back(
            std::make_unique<trace::FileTraceSource>(path));
        sim::System system(sys, pol, std::move(sources));
        bool ok = system.run();
        std::printf("  %-8s IPC %.3f  fromM1 %5.1f%%  swaps %llu  "
                    "(%s)\n",
                    pol,
                    system.core(0).quotaReached()
                        ? system.core(0).ipcAtQuota()
                        : 0.0,
                    100.0 *
                        static_cast<double>(
                            system.controller()
                                .programStats(0)
                                .servedFromM1) /
                        static_cast<double>(
                            system.controller()
                                .programStats(0)
                                .served),
                    static_cast<unsigned long long>(
                        system.controller().swapCount()),
                    ok ? "completed" : "incomplete");
    }
    return 0;
}
