#include "core/mdm.hh"

#include <cmath>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"

namespace profess
{

namespace core
{

Mdm::Mdm(const Params &p) : params_(p), progs_(p.numPrograms)
{
    fatal_if(p.numPrograms == 0, "MDM needs at least one program");
    fatal_if(p.phaseUpdates == 0 || p.recomputeEvery == 0,
             "phase parameters must be positive");
    for (auto &st : progs_) {
        for (unsigned q = 0; q < numQacValues; ++q)
            st.expCntReg[q] = p.initialExpCnt;
    }
}

Mdm::ProgState &
Mdm::state(ProgramId p)
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= progs_.size(),
             "bad program id %d", p);
    return progs_[static_cast<unsigned>(p)];
}

const Mdm::ProgState &
Mdm::state(ProgramId p) const
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= progs_.size(),
             "bad program id %d", p);
    return progs_[static_cast<unsigned>(p)];
}

std::uint8_t
Mdm::recordEviction(ProgramId owner, std::uint8_t q_i,
                    unsigned count)
{
    panic_if(count == 0, "eviction update with zero count");
    panic_if(q_i >= numQacValues, "bad q_i %u", q_i);
    std::uint8_t q_e = quantizeQac(count);
    ProgState &st = state(owner);

    st.accumCnt[q_e] += static_cast<double>(count);
    ++st.numQSumI[q_e];
    ++st.numQ[q_i][q_e];
    ++st.numQSumE[q_i];
    ++st.totalUpdates;

    // Phase machinery (Sec. 3.2.2): observation accumulates without
    // refreshing the registered values; estimation refreshes them
    // every recomputeEvery updates; counters reset when a new
    // observation phase begins.
    ++st.phaseUpdateCount;
    if (st.observing) {
        if (st.phaseUpdateCount >= params_.phaseUpdates) {
            st.observing = false;
            st.phaseUpdateCount = 0;
        }
    } else {
        if (st.phaseUpdateCount % params_.recomputeEvery == 0)
            recompute(st);
        if (st.phaseUpdateCount >= params_.phaseUpdates) {
            st.observing = true;
            st.phaseUpdateCount = 0;
            for (unsigned q = 0; q < numQacValues; ++q) {
                st.accumCnt[q] = 0.0;
                st.numQSumI[q] = 0;
                st.numQSumE[q] = 0;
                for (unsigned e = 0; e < numQacValues; ++e)
                    st.numQ[q][e] = 0;
            }
        }
    }
    PROFESS_AUDIT_ONLY(auditInvariants());
    return q_e;
}

void
Mdm::auditInvariants() const
{
    // Table 5 bucket bounds per q_E; counts arrive from 6-bit
    // saturating access counters, so 63 caps every bucket.
    constexpr double bucket_lo[numQacValues] = {0.0, 1.0, 8.0, 32.0};
    constexpr double bucket_hi[numQacValues] = {0.0, 7.0, 31.0, 63.0};
    for (const ProgState &st : progs_) {
        std::uint64_t joint_total = 0;
        for (unsigned q_i = 0; q_i < numQacValues; ++q_i) {
            profess_audit(st.numQ[q_i][0] == 0,
                          "q_E = 0 transition recorded (counts are "
                          "non-zero by contract)");
            std::uint64_t row = 0;
            for (unsigned q_e = 0; q_e < numQacValues; ++q_e)
                row += st.numQ[q_i][q_e];
            profess_audit(st.numQSumE[q_i] == row,
                          "num_q_sum_E[%u] = %llu but joint row "
                          "sums to %llu",
                          q_i,
                          static_cast<unsigned long long>(
                              st.numQSumE[q_i]),
                          static_cast<unsigned long long>(row));
            joint_total += row;
        }
        std::uint64_t col_total = 0;
        for (unsigned q_e = 0; q_e < numQacValues; ++q_e) {
            std::uint64_t col = 0;
            for (unsigned q_i = 0; q_i < numQacValues; ++q_i)
                col += st.numQ[q_i][q_e];
            profess_audit(st.numQSumI[q_e] == col,
                          "num_q_sum_I[%u] = %llu but joint column "
                          "sums to %llu",
                          q_e,
                          static_cast<unsigned long long>(
                              st.numQSumI[q_e]),
                          static_cast<unsigned long long>(col));
            col_total += col;
            double n = static_cast<double>(st.numQSumI[q_e]);
            profess_audit(st.accumCnt[q_e] >= n * bucket_lo[q_e] &&
                              st.accumCnt[q_e] <= n * bucket_hi[q_e],
                          "accum_cnt[%u] = %g outside Table 5 "
                          "bounds for %llu updates",
                          q_e, st.accumCnt[q_e],
                          static_cast<unsigned long long>(
                              st.numQSumI[q_e]));
        }
        profess_audit(joint_total == col_total,
                      "joint transition counts disagree");
        for (unsigned q = 0; q < numQacValues; ++q) {
            profess_audit(std::isfinite(st.expCntReg[q]) &&
                              st.expCntReg[q] >= 0.0,
                          "exp_cnt[%u] = %g not finite/non-negative",
                          q, st.expCntReg[q]);
        }
        profess_audit(st.phaseUpdateCount < params_.phaseUpdates,
                      "phase counter %llu not below phase length "
                      "%llu",
                      static_cast<unsigned long long>(
                          st.phaseUpdateCount),
                      static_cast<unsigned long long>(
                          params_.phaseUpdates));
    }
}

void
Mdm::recompute(ProgState &st) const
{
    // Valid q_E values are 1..3 (q_E = 0 cannot occur, Sec. 3.2.2).
    constexpr unsigned num_q_e = numQacValues - 1;
    for (unsigned q_e = 1; q_e < numQacValues; ++q_e) {
        st.avgCntReg[q_e] =
            st.numQSumI[q_e] > 0
                ? st.accumCnt[q_e] /
                      static_cast<double>(st.numQSumI[q_e])
                : 0.0;
    }
    for (unsigned q_i = 0; q_i < numQacValues; ++q_i) {
        double exp = 0.0;
        for (unsigned q_e = 1; q_e < numQacValues; ++q_e) {
            double p =
                (static_cast<double>(st.numQ[q_i][q_e]) + 1.0) /
                (static_cast<double>(st.numQSumE[q_i]) + num_q_e);
            st.pReg[q_i][q_e] = p;
            exp += st.avgCntReg[q_e] * p;
        }
        st.expCntReg[q_i] = exp;
    }
}

double
Mdm::expCnt(ProgramId p, std::uint8_t q_i) const
{
    panic_if(q_i >= numQacValues, "bad q_i %u", q_i);
    return state(p).expCntReg[q_i];
}

Mdm::DecidePath
Mdm::evaluate(const policy::AccessInfo &info, bool treat_vacant,
              double &rem_m2, double &rem_m1) const
{
    const hybrid::StcMeta &meta = *info.meta;
    rem_m1 = 0.0;
    rem_m2 = remaining(info.accessor, meta.qacAtInsert[info.slot],
                       meta.ac[info.slot]);

    // Top-level condition: enough predicted remaining accesses to
    // amortize the swap at all.
    if (rem_m2 < static_cast<double>(params_.minBenefit))
        return DecidePath::NoBenefit;

    // (a) M1 vacant (or ProFess Case 1 forcing vacancy).
    if (treat_vacant || info.m1Owner == invalidProgram)
        return DecidePath::Vacant;

    unsigned m1_cnt = meta.ac[info.m1Slot];
    if (m1_cnt == 0) {
        // (b) M1 occupied but unaccessed while another block of the
        // group is being accessed.  An idle counter right after an
        // ST-entry (re)insertion is weak evidence, so an incumbent
        // whose last residency was hot (QAC >= 2) is judged by its
        // prediction instead of being displaced outright.
        if (!meta.anyOtherAccessed(hybrid::maxSlots, info.m1Slot))
            return DecidePath::Rejected;
        if (meta.depleted(info.m1Slot) ||
            meta.qacAtInsert[info.m1Slot] < 2) {
            return DecidePath::IdleM1;
        }
        // Hot history but no observed accesses this residency: the
        // incumbent is mid-lifecycle on average, so charge it half
        // its expectation.
        rem_m1 = 0.5 * expCnt(info.m1Owner,
                              meta.qacAtInsert[info.m1Slot]);
        if (rem_m2 - rem_m1 >=
            static_cast<double>(params_.minBenefit)) {
            return DecidePath::IdleM1;
        }
        return DecidePath::Rejected;
    }

    // (c) both blocks active: individual cost-benefit analysis.
    rem_m1 = remaining(info.m1Owner, meta.qacAtInsert[info.m1Slot],
                       m1_cnt);
    if (rem_m1 <= 0.0)
        return DecidePath::Depleted; // (c.i)
    if (rem_m2 - rem_m1 >= static_cast<double>(params_.minBenefit))
        return DecidePath::NetBenefit; // (c.ii)
    return DecidePath::Rejected;
}

policy::Decision
Mdm::decide(const policy::AccessInfo &info, bool treat_vacant) const
{
    if (PROFESS_UNLIKELY(pinnedDecision_ >= 0))
        return static_cast<policy::Decision>(pinnedDecision_);
    double rem_m2 = 0.0;
    double rem_m1 = 0.0;
    DecidePath path = evaluate(info, treat_vacant, rem_m2, rem_m1);
    ++pathCounts_[static_cast<unsigned>(path)];
    bool swap = pathSwaps(path);
    if (PROFESS_UNLIKELY(trace_ != nullptr)) {
        telemetry::TraceRecord r;
        r.tick = info.now;
        r.group = info.group;
        r.a = rem_m2;
        r.b = rem_m1;
        r.margin = rem_m2 - rem_m1 -
                   static_cast<double>(params_.minBenefit);
        r.accessor = info.accessor;
        r.m1Owner = info.m1Owner;
        r.detail = static_cast<std::uint32_t>(path);
        r.kind = static_cast<std::uint8_t>(
            telemetry::TraceKind::MdmDecide);
        r.qI = info.meta->qacAtInsert[info.slot];
        r.swapped = swap ? 1 : 0;
        trace_->push(r);
    }
    return swap ? policy::Decision::Swap : policy::Decision::NoSwap;
}

const char *
Mdm::pathName(DecidePath p)
{
    switch (p) {
      case DecidePath::NoBenefit:
        return "no_benefit";
      case DecidePath::Vacant:
        return "vacant";
      case DecidePath::IdleM1:
        return "idle_m1";
      case DecidePath::Depleted:
        return "depleted";
      case DecidePath::NetBenefit:
        return "net_benefit";
      case DecidePath::Rejected:
        return "rejected";
      default:
        return "unknown";
    }
}

void
Mdm::registerTelemetry(telemetry::StatRegistry &registry,
                       const std::string &prefix) const
{
    constexpr auto num_paths =
        static_cast<unsigned>(DecidePath::NumPaths);
    for (unsigned p = 0; p < num_paths; ++p) {
        registry.addCounter(
            prefix + ".path_" +
                pathName(static_cast<DecidePath>(p)),
            pathCounts_[p]);
    }
    for (unsigned i = 0; i < progs_.size(); ++i) {
        std::string pp = prefix + ".p" + std::to_string(i);
        auto id = static_cast<ProgramId>(i);
        registry.addProbe(pp + ".updates", [this, id]() {
            return static_cast<double>(updates(id));
        });
        for (unsigned q = 0; q < numQacValues; ++q) {
            registry.addProbe(
                pp + ".exp_cnt_q" + std::to_string(q),
                [this, id, q]() {
                    return expCnt(id,
                                  static_cast<std::uint8_t>(q));
                });
        }
    }
}

std::uint64_t
Mdm::updates(ProgramId p) const
{
    return state(p).totalUpdates;
}

double
Mdm::avgCnt(ProgramId p, std::uint8_t q_e) const
{
    panic_if(q_e >= numQacValues, "bad q_e %u", q_e);
    return state(p).avgCntReg[q_e];
}

double
Mdm::transitionProb(ProgramId p, std::uint8_t q_i,
                    std::uint8_t q_e) const
{
    panic_if(q_i >= numQacValues || q_e >= numQacValues,
             "bad transition (%u,%u)", q_i, q_e);
    return state(p).pReg[q_i][q_e];
}

} // namespace core

} // namespace profess
