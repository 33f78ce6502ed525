/**
 * @file
 * The paper's evaluation in one binary: each figure, table or study
 * below is one function, run by name:
 *
 *   profess_figures NAME... [--jobs N] [observability flags]
 *
 * NAME is an entry of `figures` (bottom of this file) or `all`, which
 * runs every entry in table order.  Figures run in the order given
 * through one ParallelRunner, so they share the process-wide
 * stand-alone IPC cache.
 *
 * Environment knobs (flag equivalents in parentheses):
 *   PROFESS_INSTR / PROFESS_WARMUP  measured / warm-up instructions
 *       per program (default 3M single, 2M multi / 1M)
 *   PROFESS_QUICK=1    quarter-size runs for smoke testing
 *   PROFESS_WORKLOADS  comma list of Table 10 names (default: all);
 *                      an unknown name is fatal
 *   PROFESS_JOBS       worker threads (`--jobs N`, `-j N`; default:
 *                      all hardware threads)
 *   PROFESS_PROGRESS   =1/=0: per-job progress lines on stderr
 *                      (default: on when stderr is a terminal)
 *   PROFESS_LOG        log verbosity (`--quiet`, `--verbose`,
 *                      `--log-level N`)
 *   PROFESS_TRACE, PROFESS_TELEMETRY_OUT, PROFESS_METRICS_OUT,
 *   PROFESS_EPOCH_TICKS (`--trace`, `--telemetry-out DIR`,
 *       `--metrics-out FILE`, `--epoch-ticks N`): telemetry, see
 *       src/sim/run_telemetry.hh
 *   PROFESS_SCENARIO   fault schedule (`--scenario FILE`; see
 *                      src/sim/scenario.hh)
 *
 * Results are bit-identical for every worker count and figure
 * order: job seeds are derived from (policy, mix, sweep point),
 * never from scheduling (see src/sim/parallel_runner.hh).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

using Names = std::vector<std::string>;

/** Run-size configuration from the environment. */
struct BenchEnv
{
    std::uint64_t singleInstr = 3'000'000;
    std::uint64_t multiInstr = 2'000'000;
    std::uint64_t warmupInstr = 1'000'000;
    Names workloads;
};

BenchEnv
benchEnv()
{
    BenchEnv e;
    if (envInt<unsigned>("PROFESS_QUICK", 0)) {
        e.singleInstr = 600'000;
        e.multiInstr = 400'000;
        e.warmupInstr = 200'000;
    }
    e.singleInstr = ExperimentRunner::instrFromEnv(e.singleInstr);
    e.multiInstr = ExperimentRunner::instrFromEnv(e.multiInstr);
    e.warmupInstr = envInt<std::uint64_t>("PROFESS_WARMUP", e.warmupInstr);

    const char *wl = std::getenv("PROFESS_WORKLOADS");
    if (wl && *wl) {
        e.workloads = splitList(wl, ',');
        for (const std::string &w : e.workloads)
            fatal_if(!findWorkload(w),
                     "PROFESS_WORKLOADS: unknown workload '%s' "
                     "(Table 10 has w01..w19)", w.c_str());
    } else {
        for (const WorkloadSpec &w : multiprogramWorkloads())
            e.workloads.push_back(w.name);
    }
    return e;
}

/** Banner naming the paper artifact being regenerated. */
void
header(const char *what, const char *paper_ref)
{
    const char *rule = "============================================"
                       "================";
    std::printf("\n%s\n%s\n(reproduces %s of Knyaginin et al., "
                "\"ProFess\", HPCA 2018; scaled 1/100 per "
                "DESIGN.md)\n%s\n", rule, what, paper_ref, rule);
}

/** All ten Table 9 programs. */
Names
allPrograms()
{
    Names v;
    for (const auto &p : trace::specProfiles())
        v.push_back(p.name);
    return v;
}

/** Results of one batch over every (sweep point, mix, policy). */
struct Grid
{
    Names mixes;
    std::size_t numPolicies;
    std::vector<MultiMetrics> res;

    const MultiMetrics &
    at(std::size_t point, std::size_t mix, std::size_t policy) const
    {
        return res[(point * mixes.size() + mix) * numPolicies + policy];
    }

    /** @return IPC under policy `num` over IPC under policy `den` of
     *  a single-program mix. */
    double
    ipcRatio(std::size_t point, std::size_t mix, std::size_t num = 1,
             std::size_t den = 0) const
    {
        return at(point, mix, num).run.ipc[0] /
               at(point, mix, den).run.ipc[0];
    }
};

/** What every figure needs: run sizes and the shared runner. */
struct Ctx
{
    BenchEnv env;
    ParallelRunner runner;

    /** @return the single- or quad-core system at the run size. */
    SystemConfig
    config(bool quad) const
    {
        SystemConfig cfg = quad ? SystemConfig::quadCore()
                                : SystemConfig::singleCore();
        cfg.core.instrQuota = quad ? env.multiInstr : env.singleInstr;
        cfg.core.warmupInstr = env.warmupInstr;
        return cfg;
    }

    /** @return the first n workloads of PROFESS_WORKLOADS. */
    Names
    firstWorkloads(std::size_t n) const
    {
        return {env.workloads.begin(),
                env.workloads.begin() + std::min(n, env.workloads.size())};
    }

    /**
     * Run every (point, mix, policy) job.  A mix is a Table 10
     * workload or one Table 9 program.  Each job keeps the identity
     * multiJob/singleJob give it (label = mix, sweep point = point
     * index), so its seed does not depend on the batch.
     */
    Grid
    run(const std::vector<SystemConfig> &points, const Names &mixes,
        const Names &policies, bool slowdowns = false)
    {
        std::vector<RunJob> jobs;
        for (std::size_t p = 0; p < points.size(); ++p) {
            for (const std::string &mix : mixes) {
                const WorkloadSpec *w = findWorkload(mix);
                for (const std::string &pol : policies) {
                    jobs.push_back(
                        w ? multiJob(points[p], pol, *w, p)
                          : singleJob(points[p], pol, mix, p));
                    jobs.back().slowdowns = slowdowns;
                }
            }
        }
        return {mixes, policies.size(), runner.run(jobs)};
    }
};

/** Fairness, performance and efficiency of a policy over PoM. */
struct VsPom
{
    std::vector<double> sdn, ws, eff;

    void
    add(const MultiMetrics &m, const MultiMetrics &pom)
    {
        sdn.push_back(m.maxSlowdown / pom.maxSlowdown);
        ws.push_back(m.weightedSpeedup / pom.weightedSpeedup);
        eff.push_back(m.efficiency / pom.efficiency);
    }
};

/**
 * Append r to a gmean series and return "", or, for a ratio of 0 (no
 * swaps, or nothing served from M1), which a geometric mean cannot
 * take, leave it out and return the '*' that marks its row.
 */
const char *
addRatio(std::vector<double> &series, double r)
{
    if (r > 0.0)
        series.push_back(r);
    return r > 0.0 ? "" : "*";
}

/** Explain the '*' rows, if any of the n rows was left out. */
void
excludedNote(const std::vector<double> &series, std::size_t n)
{
    if (series.size() < n)
        std::printf("(* = ratio 0, excluded from the gmean)\n");
}

/** One "<what> gmean G (+x%; <paper>), best B" summary line. */
void
summary(const char *what, const std::vector<double> &r,
        const char *paper, bool lower_is_better)
{
    double g = geometricMean(r);
    BoxSummary box = boxSummary(r);
    std::printf("%s gmean %.3f (%s; %s), best %.3f\n", what, g,
                percentDelta(g).c_str(), paper,
                lower_is_better ? box.min : box.max);
}

/** Fig. 2 (Sec. 2.4): under PoM some program of each mix suffers far
 *  more than its co-runners. */
void
fig02(Ctx &c)
{
    header("Fig. 2: slowdowns under PoM", "Figure 2");
    Grid g = c.run({c.config(true)}, {"w09", "w16", "w19"}, {"pom"},
                   true);
    for (std::size_t i = 0; i < g.mixes.size(); ++i) {
        const MultiMetrics &m = g.at(0, i, 0);
        std::printf("\n%s:\n", g.mixes[i].c_str());
        for (unsigned p = 0; p < 4; ++p)
            std::printf("  %-12s slowdown %.2f\n",
                        m.run.programs[p].c_str(), m.slowdown[p]);
        auto [lo, hi] =
            std::minmax_element(m.slowdown.begin(), m.slowdown.end());
        std::printf("  -> max/min slowdown disparity: %.2fx "
                    "(unfairness %.2f)\n", *hi / *lo, m.maxSlowdown);
    }
}

/** Figs. 5-7 (Sec. 5.1): single-program IPC and M1 fraction of MDM
 *  over PoM, and MDM's STC hit rates. */
void
fig05to07(Ctx &c)
{
    header("Figs. 5-7: single-program MDM vs PoM", "Figures 5, 6, 7");
    Grid g = c.run({c.config(false)}, allPrograms(), {"pom", "mdm"});

    std::printf("\n%-12s %8s %8s %9s %10s %10s %8s\n", "program",
                "IPC.pom", "IPC.mdm", "mdm/pom", "M1%.pom",
                "M1%.mdm", "STC.mdm");
    std::vector<double> ipc_ratio, stc_rates, m1_ratio;
    for (std::size_t i = 0; i < g.mixes.size(); ++i) {
        const RunResult &pom = g.at(0, i, 0).run;
        const RunResult &mdm = g.at(0, i, 1).run;
        ipc_ratio.push_back(g.ipcRatio(0, i));
        stc_rates.push_back(mdm.stcHitRate);
        const char *mark = addRatio(
            m1_ratio,
            pom.m1Fraction > 0 ? mdm.m1Fraction / pom.m1Fraction : 0.0);
        std::printf("%-12s %8.3f %8.3f %9.3f %9.1f%% %9.1f%% "
                    "%7.1f%%%s\n",
                    g.mixes[i].c_str(), pom.ipc[0], mdm.ipc[0],
                    ipc_ratio.back(), 100.0 * pom.m1Fraction,
                    100.0 * mdm.m1Fraction, 100.0 * mdm.stcHitRate,
                    mark);
    }
    excludedNote(m1_ratio, g.mixes.size());

    BoxSummary box = boxSummary(ipc_ratio);
    std::printf("\nFig. 5 box statistics of MDM/PoM IPC "
                "(paper: gmean +14%%, max +38%%):\n");
    std::printf("  min %.3f  q1 %.3f  median %.3f  q3 %.3f  max "
                "%.3f  gmean %.3f (%s)\n",
                box.min, box.q1, box.median, box.q3, box.max,
                box.gmean, percentDelta(box.gmean).c_str());
    std::printf("Fig. 6 M1-fraction ratio gmean: %.3f\n",
                geometricMean(m1_ratio));
    BoxSummary stc = boxSummary(stc_rates);
    std::printf("Fig. 7 STC hit rate under MDM: min %.1f%% median "
                "%.1f%% max %.1f%% (paper: mcf ~85%%, omnetpp "
                "~70%%, others higher)\n",
                100.0 * stc.min, 100.0 * stc.median, 100.0 * stc.max);
}

/** Figs. 8-9 (Sec. 5.2): MDM's IPC and STC hit rate at the paper's
 *  16/32/64 KB single-core STC, 0.5/1/2 KiB at 1/100 scale. */
void
fig08to09(Ctx &c)
{
    header("Figs. 8-9: STC size sensitivity of MDM", "Figures 8, 9");
    const std::uint64_t sizes[] = {512, 1 * KiB, 2 * KiB};
    const char *labels[] = {"small(0.5K)", "default(1K)", "large(2K)"};
    std::vector<SystemConfig> points(3, c.config(false));
    for (std::size_t i = 0; i < 3; ++i)
        points[i].stc.capacityBytes = sizes[i];
    Grid g = c.run(points, allPrograms(), {"mdm"});

    std::printf("\n%-12s", "program");
    for (const char *l : labels)
        std::printf(" %12s %8s", l, "STC%");
    std::printf("\n");
    for (std::size_t p = 0; p < g.mixes.size(); ++p) {
        std::printf("%-12s", g.mixes[p].c_str());
        for (std::size_t i = 0; i < 3; ++i)
            std::printf(" %12.3f %7.1f%%",
                        g.at(i, p, 0).run.ipc[0] /
                            g.at(1, p, 0).run.ipc[0],
                        100.0 * g.at(i, p, 0).run.stcHitRate);
        std::printf("\n");
    }
    std::printf("\n(IPC columns normalized to the default STC; "
                "paper Fig. 8 shows mcf/omnetpp losing ~8%% with "
                "the half-size STC.)\n");
}

/** Figs. 10-12 (Sec. 5.3): MDM over PoM on the Table 10 mixes. */
void
fig10to12(Ctx &c)
{
    header("Figs. 10-12: multi-program MDM vs PoM",
           "Figures 10, 11, 12");
    Grid g = c.run({c.config(true)}, c.env.workloads, {"pom", "mdm"},
                   true);

    std::printf("\n%-5s %12s %12s %12s %10s %10s\n", "wl",
                "maxSdn(norm)", "ws(norm)", "eff(norm)", "sdn.mdm",
                "ws.mdm");
    VsPom v;
    for (std::size_t i = 0; i < g.mixes.size(); ++i) {
        const MultiMetrics &mdm = g.at(0, i, 1);
        v.add(mdm, g.at(0, i, 0));
        std::printf("%-5s %12.3f %12.3f %12.3f %10.2f %10.3f\n",
                    g.mixes[i].c_str(), v.sdn.back(), v.ws.back(),
                    v.eff.back(), mdm.maxSlowdown, mdm.weightedSpeedup);
    }
    std::printf("\n");
    summary("Fig. 10 max-slowdown ratio MDM/PoM:", v.sdn,
            "paper avg -6%", true);
    summary("Fig. 11 weighted-speedup ratio:     ", v.ws,
            "paper avg +7%", false);
    summary("Fig. 12 energy-efficiency ratio:    ", v.eff,
            "paper avg +7%", false);
}

/** Figs. 13-15 (Sec. 5.4), the headline: ProFess over PoM. */
void
fig13to15(Ctx &c)
{
    header("Figs. 13-15: ProFess vs PoM", "Figures 13, 14, 15");
    Grid g = c.run({c.config(true)}, c.env.workloads,
                   {"pom", "profess"}, true);

    std::printf("\n%-5s %12s %12s %12s %11s\n", "wl",
                "maxSdn(norm)", "ws(norm)", "eff(norm)",
                "swapFr(norm)");
    VsPom v;
    std::vector<double> swaps;
    for (std::size_t i = 0; i < g.mixes.size(); ++i) {
        const RunResult &pom = g.at(0, i, 0).run;
        const RunResult &pf = g.at(0, i, 1).run;
        v.add(g.at(0, i, 1), g.at(0, i, 0));
        double r_swap = pom.swapFraction > 0
                            ? pf.swapFraction / pom.swapFraction
                            : 1.0;
        const char *mark = addRatio(swaps, r_swap);
        std::printf("%-5s %12.3f %12.3f %12.3f %11.3f%s\n",
                    g.mixes[i].c_str(), v.sdn.back(), v.ws.back(),
                    v.eff.back(), r_swap, mark);
    }
    excludedNote(swaps, g.mixes.size());
    std::printf("\n");
    summary("Fig. 13 max-slowdown ProFess/PoM:", v.sdn,
            "paper avg -15%, best -29%", true);
    summary("Fig. 14 weighted-speedup ratio:  ", v.ws,
            "paper avg +12%, best +29%", false);
    summary("Fig. 15 energy-efficiency ratio: ", v.eff,
            "paper avg +11%, best +30%", false);
    std::printf("Swap-fraction ratio:              gmean %.3f "
                "(paper avg -24%%, best -54%%)\n",
                geometricMean(swaps));
}

/** Fig. 16 (Sec. 5.4): per-program slowdowns of PoM, MDM and
 *  ProFess. */
void
fig16(Ctx &c)
{
    header("Fig. 16: per-program slowdown detail", "Figure 16");
    Grid g = c.run({c.config(true)}, {"w09", "w16", "w19"},
                   {"pom", "mdm", "profess"}, true);
    for (std::size_t wi = 0; wi < g.mixes.size(); ++wi) {
        const MultiMetrics &pom = g.at(0, wi, 0);
        const MultiMetrics &mdm = g.at(0, wi, 1);
        const MultiMetrics &pf = g.at(0, wi, 2);
        std::printf("\n%s: %-12s %8s %8s %8s\n", g.mixes[wi].c_str(),
                    "program", "pom", "mdm", "profess");
        for (unsigned i = 0; i < 4; ++i)
            std::printf("     %-12s %8.2f %8.2f %8.2f\n",
                        pom.run.programs[i].c_str(), pom.slowdown[i],
                        mdm.slowdown[i], pf.slowdown[i]);
        std::printf("     %-12s %8.2f %8.2f %8.2f\n", "max",
                    pom.maxSlowdown, mdm.maxSlowdown, pf.maxSlowdown);
    }
}

/**
 * Table 4 (Sec. 3.1.3): RSM sampling accuracy of programs running
 * alone, at Msamp = 1K/2K/4K (the paper's 64K/128K/256K at 1/100
 * scale): the mean per-region stddev of requests served in a period,
 * and the stddev across periods of the raw and smoothed SF_A, all in
 * % of the mean.
 */
void
table4(Ctx &c)
{
    header("Table 4: RSM sampling accuracy", "Table 4");
    const std::uint64_t msamps[] = {1024, 2048, 4096};
    const char *progs[] = {"bwaves", "milc", "omnetpp"};

    // These runs inspect RSM period history, not RunResult, so
    // they go through the runner's generic forEach: cell (p, m)
    // builds its own System and writes only its own slot.
    struct Cell
    {
        double reqPct, rawPct, avgPct;
    };
    Cell cells[3][3] = {};
    c.runner.forEach(9, [&](std::size_t idx) {
        std::size_t pi = idx / 3;
        std::size_t mi = idx % 3;
        SystemConfig cfg = c.config(false);
        cfg.msamp = msamps[mi];
        cfg.rsmPerRegionStats = true;
        std::vector<std::unique_ptr<trace::TraceSource>> src;
        src.push_back(
            trace::makeSpecSource(progs[pi], trace::defaultScale, 1));
        System sys(cfg, "profess", std::move(src));
        sys.run();

        RunningStat req, raw, avg;
        for (const auto &s : sys.professPolicy()->rsm().history(0)) {
            req.add(s.reqStdPct);
            raw.add(s.rawSfA);
            avg.add(s.avgSfA);
        }
        auto rel = [](const RunningStat &s) {
            return s.mean() > 0 ? 100.0 * s.stddev() / s.mean() : 0.0;
        };
        cells[pi][mi] = {req.mean(), rel(raw), rel(avg)};
    });

    std::printf("\n%-10s", "program");
    for (std::uint64_t m : msamps)
        std::printf("  [Msamp=%-4llu] req%% rawSF%% avgSF%%",
                    static_cast<unsigned long long>(m));
    std::printf("\n");
    for (std::size_t pi = 0; pi < 3; ++pi) {
        std::printf("%-10s", progs[pi]);
        for (const Cell &cell : cells[pi])
            std::printf("      %6.1f %6.1f %6.2f   ", cell.reqPct,
                        cell.rawPct, cell.avgPct);
        std::printf("\n");
    }
    std::printf("\n(paper at 100x scale: bwaves 26/2/0.3, milc "
                "20/13/3.3, omnetpp 12/5/1.6 at Msamp=128K)\n");
}

/** Sec. 5.2: MDM/PoM IPC with tWR_M2 halved and doubled. */
void
sensWriteLatency(Ctx &c)
{
    header("Sec. 5.2: sensitivity to M2 write latency",
           "Sec. 5.2 (write-latency study)");
    const double scales[] = {0.5, 1.0, 2.0};
    std::vector<SystemConfig> points(3, c.config(false));
    for (std::size_t i = 0; i < 3; ++i)
        points[i].m2WriteScale = scales[i];
    Grid g = c.run(points, allPrograms(), {"pom", "mdm"});

    std::printf("\n%-12s %10s %10s %10s\n", "program", "0.5x tWR",
                "1x tWR", "2x tWR");
    std::vector<double> gm[3];
    for (std::size_t p = 0; p < g.mixes.size(); ++p) {
        std::printf("%-12s", g.mixes[p].c_str());
        for (std::size_t i = 0; i < 3; ++i) {
            gm[i].push_back(g.ipcRatio(i, p));
            std::printf(" %10.3f", gm[i].back());
        }
        std::printf("\n");
    }
    std::printf("\nMDM/PoM IPC gmean: 0.5x %.3f | 1x %.3f | 2x "
                "%.3f  (paper: 1.12 / 1.14 / 1.18)\n",
                geometricMean(gm[0]), geometricMean(gm[1]),
                geometricMean(gm[2]));
}

/** Sec. 5.2: MDM/PoM IPC at M1:M2 = 1:4, 1:8 and 1:16, with M2
 *  fixed; programs that fit in M1 are left out of the average. */
void
sensCapacityRatio(Ctx &c)
{
    header("Sec. 5.2: sensitivity to the M1:M2 capacity ratio",
           "Sec. 5.2 (capacity-ratio study)");
    const unsigned slots[] = {5, 9, 17};
    const std::uint64_t m1_bytes[] = {2 * MiB, 1 * MiB, 512 * KiB};
    std::vector<SystemConfig> points(3, c.config(false));
    for (std::size_t i = 0; i < 3; ++i) {
        points[i].slotsPerGroup = slots[i];
        points[i].m1BytesPerChannel = m1_bytes[i];
    }
    Grid g = c.run(points, allPrograms(), {"pom", "mdm"});

    std::printf("\n%-12s %10s %10s %10s\n", "program", "1:4", "1:8",
                "1:16");
    std::vector<double> gm[3];
    for (std::size_t p = 0; p < g.mixes.size(); ++p) {
        std::printf("%-12s", g.mixes[p].c_str());
        double fp_bytes = trace::findProfile(g.mixes[p])->footprintMB *
                          trace::defaultScale * static_cast<double>(MiB);
        for (std::size_t i = 0; i < 3; ++i) {
            bool fits = fp_bytes < static_cast<double>(m1_bytes[i]);
            if (!fits)
                gm[i].push_back(g.ipcRatio(i, p));
            std::printf(" %9.3f%s", g.ipcRatio(i, p), fits ? "*" : " ");
        }
        std::printf("\n");
    }
    std::printf("\n(* = footprint fits into M1; excluded from the "
                "average, as in the paper)\n");
    std::printf("MDM/PoM IPC gmean: 1:4 %.3f | 1:8 %.3f | 1:16 "
                "%.3f  (paper: 1.12 / 1.14 / 1.14)\n",
                geometricMean(gm[0]), geometricMean(gm[1]),
                geometricMean(gm[2]));
}

/** Prints "MemPod/PoM AMMAT gmean ..." for the given ratios. */
void
ammatGmean(const std::vector<double> &ratios, const char *paper)
{
    double gm = geometricMean(ratios);
    std::printf("MemPod/PoM AMMAT gmean: %.3f (%s; paper %s)\n", gm,
                percentDelta(gm).c_str(), paper);
}

/** Sec. 2.5 / Table 2: mean read latency (AMMAT) of MemPod, CAMEO
 *  and SILC-FM next to PoM. */
void
cmpMempodPom(Ctx &c)
{
    header("Sec. 2.5: MemPod vs PoM (and Table 2 baselines)",
           "Sec. 2.5 / Table 2");
    Grid s = c.run({c.config(false)}, allPrograms(),
                   {"pom", "mempod", "cameo", "silcfm"});
    std::printf("\nsingle-program mean read latency (ns):\n");
    std::printf("%-12s %8s %8s %8s %8s\n", "program", "pom", "mempod",
                "cameo", "silcfm");
    std::vector<double> ratio;
    for (std::size_t p = 0; p < s.mixes.size(); ++p) {
        std::printf("%-12s", s.mixes[p].c_str());
        for (std::size_t k = 0; k < 4; ++k)
            std::printf(" %8.1f", s.at(0, p, k).run.meanReadLatencyNs);
        std::printf("\n");
        ratio.push_back(s.at(0, p, 1).run.meanReadLatencyNs /
                        s.at(0, p, 0).run.meanReadLatencyNs);
    }
    ammatGmean(ratio, "+19%");

    // Only AMMAT is needed: no slowdowns, no reference runs.
    Grid m = c.run({c.config(true)}, c.firstWorkloads(5),
                   {"pom", "mempod"});
    std::printf("\nmulti-program mean read latency (ns), "
                "first five workloads:\n");
    std::printf("%-5s %8s %8s %10s\n", "wl", "pom", "mempod", "ratio");
    ratio.clear();
    for (std::size_t i = 0; i < m.mixes.size(); ++i) {
        double pom = m.at(0, i, 0).run.meanReadLatencyNs;
        double mp = m.at(0, i, 1).run.meanReadLatencyNs;
        ratio.push_back(mp / pom);
        std::printf("%-5s %8.1f %8.1f %10.3f\n", m.mixes[i].c_str(),
                    pom, mp, mp / pom);
    }
    ammatGmean(ratio, "+18%");
}

/** Sec. 6: RSM's Table 7 guidance wrapped around PoM, next to plain
 *  PoM and ProFess. */
void
ablationRsmPom(Ctx &c)
{
    header("Ablation: RSM guidance around PoM (paper Sec. 6)",
           "Sec. 6 (RSM portability)");
    Grid g = c.run({c.config(true)}, c.firstWorkloads(8),
                   {"pom", "rsm-pom", "profess"}, true);

    std::printf("\n%-5s | %9s %9s | %9s %9s | %9s %9s\n", "wl",
                "pom.sdn", "pom.ws", "rsm.sdn", "rsm.ws", "pf.sdn",
                "pf.ws");
    VsPom rsm, pf;
    for (std::size_t i = 0; i < g.mixes.size(); ++i) {
        std::printf("%-5s", g.mixes[i].c_str());
        for (std::size_t k = 0; k < 3; ++k)
            std::printf(" | %9.2f %9.3f", g.at(0, i, k).maxSlowdown,
                        g.at(0, i, k).weightedSpeedup);
        std::printf("\n");
        rsm.add(g.at(0, i, 1), g.at(0, i, 0));
        pf.add(g.at(0, i, 2), g.at(0, i, 0));
    }
    std::printf("\nmax-slowdown vs PoM: rsm-pom gmean %.3f, "
                "profess gmean %.3f\n",
                geometricMean(rsm.sdn), geometricMean(pf.sdn));
}

/** Sec. 3.3 / 3.1.3: ProFess over PoM as the Table 7 hysteresis
 *  thresholds and the RSM sampling period Msamp vary. */
void
ablationProfess(Ctx &c)
{
    header("Ablation: ProFess thresholds and Msamp",
           "Sec. 3.3 / Sec. 3.1.3 design choices");
    std::printf("\n(first six Table 10 workloads, ProFess "
                "normalized to PoM)\n\n");

    const double t32 = 1.0 + 1.0 / 32.0;
    const double t16 = 1.0 + 1.0 / 16.0;
    struct Point
    {
        const char *label;
        double factorThr, productThr;
        std::uint64_t msamp;
    };
    const Point points[] = {
        {"no hysteresis (t=1.0)", 1.0, 1.0, 2048},
        {"paper t=1/32, tp=1/16", t32, t16, 2048},
        {"strong t=1/8, tp=1/4", 1.125, 1.25, 2048},
        {"guidance off (t=1e9)", 1e9, 1e9, 2048},
        {"Msamp=512", t32, t16, 512},
        {"Msamp=2048 (default)", t32, t16, 2048},
        {"Msamp=8192", t32, t16, 8192},
    };
    std::vector<SystemConfig> cfgs;
    for (const Point &pt : points) {
        SystemConfig &cfg = cfgs.emplace_back(c.config(true));
        cfg.professFactorThreshold = pt.factorThr;
        cfg.professProductThreshold = pt.productThr;
        cfg.msamp = pt.msamp;
    }
    Grid g = c.run(cfgs, c.firstWorkloads(6), {"pom", "profess"}, true);

    for (std::size_t k = 0; k < cfgs.size(); ++k) {
        VsPom v;
        for (std::size_t j = 0; j < g.mixes.size(); ++j)
            v.add(g.at(k, j, 1), g.at(k, j, 0));
        std::printf("%-28s maxSdn/PoM %.3f   ws/PoM %.3f\n",
                    points[k].label, geometricMean(v.sdn),
                    geometricMean(v.ws));
        if (k == 3)
            std::printf("\n");
    }
}

/** Sec. 2.2: Thermostat-style OS page migration next to PoM and
 *  ProFess on single-program runs. */
void
extOsVsHw(Ctx &c)
{
    header("Extension: OS coarse-grain vs hardware management",
           "Sec. 2.2 (management granularity)");
    Grid g = c.run({c.config(false)}, allPrograms(),
                   {"oscoarse", "pom", "profess"});

    std::printf("\n%-12s %21s %21s %21s\n", "", "oscoarse", "pom",
                "profess");
    std::printf("%-12s %8s %6s %5s %8s %6s %5s %8s %6s %5s\n",
                "program", "IPC", "M1%", "sw%", "IPC", "M1%", "sw%",
                "IPC", "M1%", "sw%");
    std::vector<double> os_vs_pom;
    for (std::size_t p = 0; p < g.mixes.size(); ++p) {
        os_vs_pom.push_back(g.ipcRatio(0, p, 0, 1));
        std::printf("%-12s", g.mixes[p].c_str());
        for (std::size_t k = 0; k < 3; ++k) {
            const RunResult &r = g.at(0, p, k).run;
            std::printf(" %8.3f %5.1f%% %4.1f%%", r.ipc[0],
                        100.0 * r.m1Fraction, 100.0 * r.swapFraction);
        }
        std::printf("\n");
    }
    double gm = geometricMean(os_vs_pom);
    std::printf("\nOS-coarse / PoM IPC gmean: %.3f (%s)\n", gm,
                percentDelta(gm).c_str());
}

struct Figure
{
    const char *name;
    void (*run)(Ctx &);
};

/** Every figure, in the order `all` runs them. */
const Figure figures[] = {
    {"fig02_pom_slowdowns", fig02},
    {"fig05_07_single_mdm", fig05to07},
    {"fig08_09_stc_sensitivity", fig08to09},
    {"fig10_12_multi_mdm", fig10to12},
    {"fig13_15_multi_profess", fig13to15},
    {"fig16_slowdown_detail", fig16},
    {"table4_sampling_accuracy", table4},
    {"sens_write_latency", sensWriteLatency},
    {"sens_capacity_ratio", sensCapacityRatio},
    {"cmp_mempod_pom", cmpMempodPom},
    {"ablation_rsm_pom", ablationRsmPom},
    {"ablation_profess", ablationProfess},
    {"ext_os_vs_hw", extOsVsHw},
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s NAME... [--jobs N] [--trace] "
                 "[--telemetry-out DIR] [--metrics-out FILE] "
                 "[--epoch-ticks N] [--scenario FILE] [--quiet] "
                 "[--verbose] [--log-level N]\n"
                 "NAME is 'all' (every figure, in this order) or:\n",
                 argv0);
    for (const Figure &f : figures)
        std::fprintf(stderr, "  %s\n", f.name);
    std::exit(1);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchEnv env = benchEnv();
    logging::configure(argc, argv);
    TelemetryConfig::global().initFromArgs(argc, argv);
    ScenarioConfig::global().initFromArgs(argc, argv);
    unsigned jobs = ParallelRunner::jobsFromArgs(argc, argv);

    std::vector<const Figure *> todo;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            ++i; // read by jobsFromArgs above
            continue;
        }
        if (arg.rfind("--jobs=", 0) == 0)
            continue;
        std::size_t before = todo.size();
        for (const Figure &f : figures)
            if (arg == "all" || arg == f.name)
                todo.push_back(&f);
        if (todo.size() == before) {
            std::fprintf(stderr, "unknown figure '%s'\n", arg.c_str());
            usage(argv[0]);
        }
    }
    if (todo.empty())
        usage(argv[0]);

    if (jobs > 1)
        std::fprintf(stderr, "[profess] running with %u workers "
                     "(--jobs 1 for the serial path)\n", jobs);
    Ctx c{std::move(env), ParallelRunner(jobs)};
    for (const Figure *f : todo)
        f->run(c);
    return 0;
}
