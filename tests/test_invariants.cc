/**
 * @file
 * Randomized end-to-end invariant tests ("property tests" at system
 * scope): whatever the policy and the access stream, the simulator
 * must conserve requests, keep the swap-group tables permutations,
 * keep statistics consistent, and stay deterministic.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/invariant.hh"
#include "core/profess.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

SystemConfig
tinyConfig()
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 60000;
    c.core.warmupInstr = 20000;
    return c;
}

std::vector<std::unique_ptr<trace::TraceSource>>
fourSources(std::uint64_t seed)
{
    std::vector<std::unique_ptr<trace::TraceSource>> v;
    const char *names[] = {"mcf", "lbm", "omnetpp", "zeusmp"};
    for (unsigned i = 0; i < 4; ++i) {
        v.push_back(trace::makeSpecSource(
            names[i], trace::defaultScale, seed + i * 7));
    }
    return v;
}

} // anonymous namespace

class PolicyInvariants : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PolicyInvariants, EndToEnd)
{
    System sys(tinyConfig(), GetParam(), fourSources(3));
    ASSERT_TRUE(sys.run());

    // 1. Request conservation: every core-issued access is served.
    std::uint64_t issued = 0;
    for (unsigned i = 0; i < sys.numCores(); ++i)
        issued += sys.core(i).memReads() + sys.core(i).memWrites();
    std::uint64_t served = 0;
    for (unsigned p = 0; p < sys.numPrograms(); ++p) {
        const auto &ps =
            sys.controller().programStats(static_cast<ProgramId>(p));
        served += ps.served;
        EXPECT_LE(ps.servedFromM1, ps.served);
        EXPECT_EQ(ps.reads + ps.writes, ps.served);
    }
    // Stats were reset at the warm-up boundary, so served counts
    // only the measurement window.
    EXPECT_LE(served, issued);
    EXPECT_GT(served, issued / 4);

    // 2. Every swap group's ATB stays a permutation, and QAC values
    //    stay within 2 bits.
    const hybrid::SwapGroupTable &st = sys.controller().table();
    const hybrid::HybridLayout &l = sys.controller().layout();
    for (std::uint64_t g = 0; g < l.numGroups; g += 13) {
        std::set<unsigned> locs;
        for (unsigned s = 0; s < l.slotsPerGroup; ++s) {
            unsigned loc = st.locationOf(g, s);
            ASSERT_LT(loc, l.slotsPerGroup);
            EXPECT_TRUE(locs.insert(loc).second)
                << "group " << g << " duplicated location";
            EXPECT_LT(st.entry(g).qac[s], 4);
        }
    }

    // 3. Channel-level bookkeeping: row hits + misses equals the
    //    device accesses; demand counters cover the served demand.
    std::uint64_t row_ops =
        sys.memory().totalCounter("row_hits") +
        sys.memory().totalCounter("row_misses");
    std::uint64_t device_accesses =
        sys.memory().totalCounter("m1_accesses") +
        sys.memory().totalCounter("m2_accesses");
    EXPECT_EQ(row_ops, device_accesses);
    std::uint64_t demand =
        sys.memory().totalCounter("demand_reads") +
        sys.memory().totalCounter("demand_writes");
    EXPECT_GE(demand, served * 9 / 10); // completion lag tolerance

    // 4. Time and energy are positive and finite.
    EXPECT_GT(sys.measuredSeconds(), 0.0);
    double joules =
        sys.memory().totalJoules(sys.measuredSeconds());
    EXPECT_GT(joules, 0.0);
    EXPECT_LT(joules, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariants,
                         ::testing::Values("never", "always",
                                           "cameo", "silcfm", "pom",
                                           "mempod", "mdm",
                                           "profess", "rsm-pom",
                                           "oscoarse"));

TEST(AuditSubsystem, SystemAuditRunsEverywhere)
{
    // The audit methods are compiled into every build type (only
    // the hot-path call sites are PROFESS_AUDIT-gated), so a full
    // post-run audit must be callable here and must execute a
    // substantial number of checks.
    System sys(tinyConfig(), "profess", fourSources(11));
    ASSERT_TRUE(sys.run());
    std::uint64_t before = audit::checksRun();
    sys.auditInvariants();
    EXPECT_GT(audit::checksRun(), before + 1000);
}

namespace
{

/**
 * Drive `pol`'s RSM so program `p` ends a smoothing period with
 * roughly the intended slowdown factors (mirrors the fixture in
 * test_profess.cc; requires rsm.sampleRequests == 10, alpha == 1).
 */
void
driveFactors(core::ProfessPolicy &pol, ProgramId p, double sf_a,
             double sf_b)
{
    core::Rsm &rsm = pol.rsm();
    int shared_m1 = std::max(0, static_cast<int>(8.0 / sf_a) - 1);
    int swaps = static_cast<int>(sf_b) - 1;
    for (int i = 0; i < swaps; ++i)
        rsm.onSwap(p, invalidProgram, false);
    for (int i = 0; i < 2; ++i)
        rsm.onServed(p, static_cast<unsigned>(p), true);
    for (int i = 0; i < 8; ++i)
        rsm.onServed(p, 10, i < shared_m1);
}

} // anonymous namespace

TEST(AuditSubsystem, ForcedVacantSwapsKeepStIntegrity)
{
    // Table 7 Case 1 treats the incumbent M1 block "as if vacant":
    // MDM sees no displaced-block cost, so sustained Case-1
    // guidance produces the most aggressive swap pattern the
    // controller can emit.  Force that pattern directly into a
    // swap-group table and audit after every swap.
    hybrid::HybridLayout layout =
        hybrid::HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    os::PageAllocator alloc(layout.numGroups, 9, 32, 2, 7);
    core::ProfessPolicy::Params p;
    p.mdm.numPrograms = 2;
    p.rsm.numPrograms = 2;
    p.rsm.numRegions = 32;
    p.rsm.sampleRequests = 10;
    p.rsm.alpha = 1.0;
    core::ProfessPolicy pol(layout, alloc, p);
    driveFactors(pol, 0, 4.0, 4.0); // accessor suffers
    driveFactors(pol, 1, 1.0, 1.0);

    hybrid::StcMeta meta{};
    std::memset(meta.ac, 0, sizeof(meta.ac));
    policy::AccessInfo info{};
    info.slot = 2;
    info.m1Slot = 0;
    info.region = 10;
    info.accessor = 0;
    info.m1Owner = 1;
    info.meta = &meta;
    ASSERT_EQ(pol.classify(info),
              core::ProfessPolicy::GuidanceCase::Case1);

    hybrid::SwapGroupTable st(layout);
    std::uint64_t before = audit::checksRun();
    for (std::uint64_t g = 0; g < 32; ++g) {
        for (unsigned s = 1; s < layout.slotsPerGroup; ++s) {
            st.swapSlots(g, st.slotInM1(g), s);
            st.auditGroup(g);
        }
    }
    st.auditInvariants();
    EXPECT_GT(audit::checksRun(), before);
}

class SeedSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SeedSweep, DeterministicAndSane)
{
    std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    auto once = [&]() {
        System sys(tinyConfig(), "profess", fourSources(seed));
        sys.run();
        std::vector<double> ipc;
        for (unsigned i = 0; i < sys.numCores(); ++i)
            ipc.push_back(sys.core(i).ipcAtQuota());
        return ipc;
    };
    std::vector<double> a = once();
    std::vector<double> b = once();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i], b[i]);
        EXPECT_GT(a[i], 0.0);
        EXPECT_LE(a[i], 4.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range(1, 6));
