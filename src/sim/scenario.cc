#include "sim/scenario.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"
#include "core/mdm_policy.hh"
#include "core/profess.hh"
#include "mem/memory_system.hh"
#include "sim/system.hh"

namespace profess
{

namespace sim
{

namespace
{

/** Quiesce-audit retry spacing and bound: a busy controller gets
 *  re-polled every backoff ticks up to the deferral cap, after which
 *  the audit is abandoned (counted, never silent). */
constexpr Cycles quiesceBackoff = 128;
constexpr unsigned quiesceMaxDeferrals = 64;

} // anonymous namespace

const char *
interventionKindName(InterventionKind k)
{
    switch (k) {
      case InterventionKind::WriteSpike:
        return "write_spike";
      case InterventionKind::BankBusy:
        return "bank_busy";
      case InterventionKind::SwapAbort:
        return "swap_abort";
      case InterventionKind::PinRsm:
        return "pin_rsm";
      case InterventionKind::UnpinRsm:
        return "unpin_rsm";
      case InterventionKind::PinMdm:
        return "pin_mdm";
      case InterventionKind::UnpinMdm:
        return "unpin_mdm";
      case InterventionKind::QuiesceAudit:
        return "quiesce_audit";
      default:
        return "unknown";
    }
}

ScenarioSchedule &
ScenarioSchedule::add(const Intervention &iv)
{
    fatal_if(iv.kind >= InterventionKind::NumKinds,
             "scenario: invalid intervention kind %u",
             static_cast<unsigned>(iv.kind));
    fatal_if(iv.probability < 0.0 || iv.probability > 1.0,
             "scenario: probability %.3f outside [0, 1]",
             iv.probability);
    fatal_if(iv.kind == InterventionKind::WriteSpike &&
                 !(iv.scale > 0.0 && std::isfinite(iv.scale)),
             "scenario: write-spike scale %.3f must be finite "
             "and positive",
             iv.scale);
    fatal_if(iv.kind == InterventionKind::PinRsm &&
                 !(std::isfinite(iv.sfA) && iv.sfA > 0.0 &&
                   std::isfinite(iv.sfB) && iv.sfB >= 1.0),
             "scenario: pinned factors sfA=%.3f sfB=%.3f violate "
             "SF_A > 0, SF_B >= 1",
             iv.sfA, iv.sfB);
    fatal_if(iv.backoff == 0, "scenario: retry backoff must be > 0");
    ivs_.push_back(iv);
    return *this;
}

ScenarioSchedule &
ScenarioSchedule::writeSpike(Tick at, Tick duration, double scale,
                             int channel)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::WriteSpike;
    iv.duration = duration;
    iv.scale = scale;
    iv.channel = channel;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::bankBusy(Tick at, Tick duration, int channel)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::BankBusy;
    iv.duration = duration;
    iv.channel = channel;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::swapAbortWindow(Tick at, Tick duration,
                                  double probability,
                                  unsigned max_retries, Cycles backoff)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::SwapAbort;
    iv.duration = duration;
    iv.probability = probability;
    iv.maxRetries = max_retries;
    iv.backoff = backoff;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::pinRsmFactors(Tick at, int program, double sf_a,
                                double sf_b)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::PinRsm;
    iv.program = program;
    iv.sfA = sf_a;
    iv.sfB = sf_b;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::unpinRsmFactors(Tick at, int program)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::UnpinRsm;
    iv.program = program;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::pinMdmDecision(Tick at, bool swap)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::PinMdm;
    iv.decisionSwap = swap;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::unpinMdmDecision(Tick at)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::UnpinMdm;
    return add(iv);
}

ScenarioSchedule &
ScenarioSchedule::quiesceAudit(Tick at)
{
    Intervention iv;
    iv.at = at;
    iv.kind = InterventionKind::QuiesceAudit;
    return add(iv);
}

std::uint64_t
ScenarioSchedule::fingerprint() const
{
    if (ivs_.empty())
        return 0;
    std::uint64_t h = 0x5ce7a810'5ce7a810ull;
    for (const Intervention &iv : ivs_) {
        h = hashCombine(h, iv.at);
        h = hashCombine(h, static_cast<std::uint64_t>(iv.kind));
        h = hashCombine(h, iv.duration);
        h = hashCombine(h, doubleBits(iv.scale));
        h = hashCombine(h, doubleBits(iv.probability));
        h = hashCombine(h, static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(iv.channel)));
        h = hashCombine(h, static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(iv.program)));
        h = hashCombine(h, doubleBits(iv.sfA));
        h = hashCombine(h, doubleBits(iv.sfB));
        h = hashCombine(h,
                        static_cast<std::uint64_t>(iv.decisionSwap));
        h = hashCombine(h, static_cast<std::uint64_t>(iv.maxRetries));
        h = hashCombine(h, iv.backoff);
    }
    return h != 0 ? h : 0x9e3779b97f4a7c15ull;
}

namespace
{

InterventionKind
parseKind(const std::string &where, const std::string &val)
{
    for (unsigned k = 0;
         k < static_cast<unsigned>(InterventionKind::NumKinds); ++k) {
        auto kind = static_cast<InterventionKind>(k);
        if (val == interventionKindName(kind))
            return kind;
    }
    fatal("%s: unknown intervention kind '%s'", where.c_str(),
          val.c_str());
}

} // anonymous namespace

ScenarioSchedule
ScenarioSchedule::fromFile(const std::string &path)
{
    ScenarioSchedule s;
    readKeyValueFile(path, "scenario file", [&](const std::string &where,
                                                const auto &tokens) {
        Intervention iv;
        bool have_kind = false;
        for (const auto &[key, val] : tokens) {
            std::string what = where + ": " + key;
            if (key == "at") {
                iv.at = parseInt<Tick>(val, what);
            } else if (key == "kind") {
                iv.kind = parseKind(where, val);
                have_kind = true;
            } else if (key == "duration") {
                iv.duration = parseInt<Tick>(val, what);
            } else if (key == "scale") {
                iv.scale = parseDouble(val, what);
            } else if (key == "probability") {
                iv.probability = parseDouble(val, what);
            } else if (key == "channel") {
                iv.channel = parseInt<int>(val, what);
            } else if (key == "program") {
                iv.program = parseInt<int>(val, what);
            } else if (key == "sf_a") {
                iv.sfA = parseDouble(val, what);
            } else if (key == "sf_b") {
                iv.sfB = parseDouble(val, what);
            } else if (key == "decision") {
                fatal_if(val != "swap" && val != "noswap",
                         "%s: decision must be swap or noswap, got '%s'",
                         where.c_str(), val.c_str());
                iv.decisionSwap = (val == "swap");
            } else if (key == "max_retries") {
                iv.maxRetries = parseInt<unsigned>(val, what);
            } else if (key == "backoff") {
                iv.backoff = parseInt<Cycles>(val, what);
            } else {
                fatal("%s: unknown key '%s'", where.c_str(), key.c_str());
            }
        }
        fatal_if(!have_kind, "%s: intervention line without kind=",
                 where.c_str());
        s.add(iv);
    });
    return s;
}

void
ScenarioConfig::initFromEnv()
{
    const char *f = std::getenv("PROFESS_SCENARIO");
    if (f != nullptr && f[0] != '\0') {
        file = f;
        schedule = ScenarioSchedule::fromFile(file);
        active = true;
    }
}

void
ScenarioConfig::initFromArgs(int &argc, char **argv)
{
    initFromEnv();
    std::string flag_file;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string a(argv[i]);
        if (a == "--scenario" && i + 1 < argc) {
            flag_file = argv[++i];
        } else if (a.rfind("--scenario=", 0) == 0) {
            flag_file = a.substr(std::strlen("--scenario="));
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    if (!flag_file.empty()) {
        file = flag_file;
        schedule = ScenarioSchedule::fromFile(file);
        active = true;
    }
}

ScenarioConfig &
ScenarioConfig::global()
{
    static ScenarioConfig cfg;
    return cfg;
}

ScenarioController::ScenarioController(const ScenarioSchedule &schedule,
                                       std::uint64_t seed)
    : schedule_(schedule), rng_(seed, /*stream=*/0x5ce7a810u)
{
}

void
ScenarioController::attach(System &sys)
{
    panic_if(sys_ != nullptr, "scenario controller attached twice");
    sys_ = &sys;
    eq_ = &sys.eventQueue();
    sys.controller().setFaultInjector(this);
    Tick now = eq_->now();
    for (const Intervention &iv : schedule_.interventions()) {
        // schedule_ is owned by this controller, so the pointer
        // stays valid for the lifetime of the run.
        const Intervention *p = &iv;
        Cycles delay = iv.at > now ? iv.at - now : 0;
        eq_->scheduleIn(delay, [this, p]() { fire(*p); });
    }
}

void
ScenarioController::fire(const Intervention &iv)
{
    Tick now = eq_->now();
    switch (iv.kind) {
      case InterventionKind::WriteSpike: {
        mem::MemorySystem &mem = sys_->memory();
        for (unsigned c = 0; c < mem.numChannels(); ++c) {
            if (iv.channel >= 0 &&
                c != static_cast<unsigned>(iv.channel))
                continue;
            mem.channel(c).setM2WriteScale(iv.scale);
        }
        note(EventCode::WriteSpikeBegin, 0, now, iv.scale,
             static_cast<double>(iv.duration));
        if (iv.duration > 0) {
            int channel = iv.channel;
            eq_->scheduleIn(iv.duration, [this, channel]() {
                mem::MemorySystem &m = sys_->memory();
                for (unsigned c = 0; c < m.numChannels(); ++c) {
                    if (channel >= 0 &&
                        c != static_cast<unsigned>(channel))
                        continue;
                    m.channel(c).setM2WriteScale(1.0);
                }
                note(EventCode::WriteSpikeEnd, 0, eq_->now());
            });
        }
        break;
      }
      case InterventionKind::BankBusy: {
        mem::MemorySystem &mem = sys_->memory();
        Tick until = now + iv.duration;
        for (unsigned c = 0; c < mem.numChannels(); ++c) {
            if (iv.channel >= 0 &&
                c != static_cast<unsigned>(iv.channel))
                continue;
            mem.channel(c).injectBankBusy(mem::Module::M2, until);
        }
        note(EventCode::BankBusy, 0, now,
             static_cast<double>(iv.duration));
        // Keep the window armed: swaps committed inside it reset
        // the involved banks' ready times to the swap end, which
        // would otherwise erase the rest of the throttling window.
        if (now + bankBusyRearmPeriod < until) {
            int channel = iv.channel;
            eq_->scheduleIn(bankBusyRearmPeriod,
                            [this, channel, until]() {
                                rearmBankBusy(channel, until);
                            });
        }
        break;
      }
      case InterventionKind::SwapAbort: {
        abortWindowEnd_ =
            iv.duration > 0 ? now + iv.duration
                            : std::numeric_limits<Tick>::max();
        abortProbability_ = iv.probability;
        abortMaxRetries_ = iv.maxRetries;
        abortBackoff_ = iv.backoff;
        note(EventCode::AbortWindowBegin, 0, now, iv.probability,
             static_cast<double>(iv.duration));
        if (iv.duration > 0) {
            eq_->scheduleIn(iv.duration, [this]() {
                // A newer, longer window may have superseded this
                // one; only the window actually ending now closes.
                if (eq_->now() >= abortWindowEnd_) {
                    abortProbability_ = 0.0;
                    note(EventCode::AbortWindowEnd, 0, eq_->now());
                }
            });
        }
        break;
      }
      case InterventionKind::PinRsm: {
        core::ProfessPolicy *pp = sys_->professPolicy();
        if (pp == nullptr) {
            note(EventCode::PinUnsupported, 0, now);
            break;
        }
        if (iv.program < 0) {
            for (unsigned p = 0; p < sys_->numPrograms(); ++p)
                pp->rsm().pinFactors(static_cast<ProgramId>(p),
                                     iv.sfA, iv.sfB);
        } else {
            pp->rsm().pinFactors(
                static_cast<ProgramId>(iv.program), iv.sfA, iv.sfB);
        }
        note(EventCode::RsmPin, 0, now, iv.sfA, iv.sfB);
        break;
      }
      case InterventionKind::UnpinRsm: {
        core::ProfessPolicy *pp = sys_->professPolicy();
        if (pp == nullptr) {
            note(EventCode::PinUnsupported, 0, now);
            break;
        }
        if (iv.program < 0) {
            for (unsigned p = 0; p < sys_->numPrograms(); ++p)
                pp->rsm().unpinFactors(static_cast<ProgramId>(p));
        } else {
            pp->rsm().unpinFactors(
                static_cast<ProgramId>(iv.program));
        }
        note(EventCode::RsmUnpin, 0, now);
        break;
      }
      case InterventionKind::PinMdm:
      case InterventionKind::UnpinMdm: {
        core::Mdm *mdm = nullptr;
        if (core::ProfessPolicy *pp = sys_->professPolicy()) {
            mdm = &pp->mdm();
        } else if (auto *mp = dynamic_cast<core::MdmPolicy *>(
                       &sys_->policy())) {
            mdm = &mp->engine();
        }
        if (mdm == nullptr) {
            note(EventCode::PinUnsupported, 0, now);
        } else if (iv.kind == InterventionKind::PinMdm) {
            mdm->pinDecision(iv.decisionSwap
                                 ? policy::Decision::Swap
                                 : policy::Decision::NoSwap);
            note(EventCode::MdmPin, 0, now,
                 iv.decisionSwap ? 1.0 : 0.0);
        } else {
            mdm->unpinDecision();
            note(EventCode::MdmUnpin, 0, now);
        }
        break;
      }
      case InterventionKind::QuiesceAudit:
        runQuiesceAudit(iv, 0);
        break;
      default:
        panic("scenario: firing invalid intervention kind %u",
              static_cast<unsigned>(iv.kind));
    }
}

void
ScenarioController::rearmBankBusy(int channel, Tick until)
{
    Tick now = eq_->now();
    if (now >= until)
        return;
    mem::MemorySystem &mem = sys_->memory();
    for (unsigned c = 0; c < mem.numChannels(); ++c) {
        if (channel >= 0 && c != static_cast<unsigned>(channel))
            continue;
        // Re-bumping is a max(), so it is idempotent for banks
        // still holding the window and only lifts banks a swap
        // reset below it.
        mem.channel(c).injectBankBusy(mem::Module::M2, until);
    }
    note(EventCode::BankBusyRearm, 0, now,
         static_cast<double>(until - now));
    if (now + bankBusyRearmPeriod < until) {
        eq_->scheduleIn(bankBusyRearmPeriod,
                        [this, channel, until]() {
                            rearmBankBusy(channel, until);
                        });
    }
}

void
ScenarioController::runQuiesceAudit(const Intervention &iv,
                                    unsigned deferrals)
{
    Tick now = eq_->now();
    if (!sys_->controller().quiescent()) {
        if (deferrals >= quiesceMaxDeferrals) {
            note(EventCode::QuiesceGiveup, 0, now,
                 static_cast<double>(deferrals));
            return;
        }
        note(EventCode::QuiesceDeferred, 0, now,
             static_cast<double>(deferrals));
        const Intervention *p = &iv;
        eq_->scheduleIn(quiesceBackoff, [this, p, deferrals]() {
            runQuiesceAudit(*p, deferrals + 1);
        });
        return;
    }
    // Quiescent: no fill or swap is in flight, so every cached
    // group's q_I snapshots must agree with the live ST QACs, and
    // all structural invariants must hold.
    sys_->controller().auditStcQacCoherence();
    sys_->auditInvariants();
    note(EventCode::QuiesceAuditRun, 0, now,
         static_cast<double>(deferrals));
}

bool
ScenarioController::swapAborts(std::uint64_t group, Tick now)
{
    if (now >= abortWindowEnd_ || abortProbability_ <= 0.0)
        return false;
    if (rng_.uniform() >= abortProbability_)
        return false;
    note(EventCode::SwapAbortInjected, group, now,
         abortProbability_);
    return true;
}

void
ScenarioController::noteSwapRetry(std::uint64_t group, Tick now)
{
    note(EventCode::SwapRetry, group, now);
}

void
ScenarioController::noteSwapDegraded(std::uint64_t group, Tick now)
{
    note(EventCode::SwapDegraded, group, now);
}

std::uint64_t
ScenarioController::eventTotal() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < stats_.size(); ++i)
        total += stats_[i];
    return total;
}

void
ScenarioController::registerTelemetry(
    telemetry::StatRegistry &registry, const std::string &prefix)
{
    registry.addSet(prefix, stats_);
}

void
ScenarioController::note(EventCode code, std::uint64_t group,
                         Tick now, double a, double b)
{
    ++stats_[static_cast<unsigned>(code)];
    if (PROFESS_UNLIKELY(trace_ != nullptr)) {
        telemetry::TraceRecord r;
        r.tick = now;
        r.group = group;
        r.a = a;
        r.b = b;
        r.detail = static_cast<std::uint32_t>(code);
        r.kind = static_cast<std::uint8_t>(
            telemetry::TraceKind::ScenarioEvent);
        trace_->push(r);
    }
}

} // namespace sim

} // namespace profess
