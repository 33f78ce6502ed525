#include "hybrid/hybrid_controller.hh"

#include <cstring>

#include "common/invariant.hh"
#include "common/latency_attr.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"

namespace profess
{

namespace hybrid
{

HybridController::HybridController(EventQueue &eq,
                                   mem::MemorySystem &memory,
                                   const HybridLayout &layout,
                                   const Params &params,
                                   policy::MigrationPolicy &policy,
                                   const os::BlockOwnerOracle &oracle)
    : eq_(eq), memory_(memory), layout_(layout), params_(params),
      policy_(policy), oracle_(oracle), st_(layout), stc_(params.stc),
      perProgram_(params.numPrograms),
      swapRetryLat_(256.0, 64)
{
    fatal_if(layout.numChannels != memory.numChannels(),
             "layout expects %u channels, memory has %u",
             layout.numChannels, memory.numChannels());
    fatal_if(layout.m1BytesRequiredPerChannel() >
                 memory.config().m1BytesPerChannel,
             "M1 module too small for layout");
    fatal_if(layout.m2BytesRequiredPerChannel() >
                 memory.config().m2BytesPerChannel,
             "M2 module too small for layout");
    fatal_if((layout.blockBytes & (layout.blockBytes - 1)) != 0,
             "block size must be a power of two");
    fatal_if(layout.totalBlocks() >
                 std::uint64_t{0xffffffff},
             "original space too large for 32-bit block math");
    policy_.setHost(this);

    groupDiv_ =
        FastDivMod(static_cast<std::uint32_t>(layout.numGroups));
    offsetMask_ = layout.blockBytes - 1;
    blockShift_ = 0;
    while ((std::uint64_t{1} << blockShift_) < layout.blockBytes)
        ++blockShift_;
    m2Stride_ = layout.groupsPerChannel() * layout.blockBytes;

    // Groups interleave across channels, and group pairs across
    // regions (layout.hh): walk channel, local group and region as
    // running counters instead of dividing per group.  The
    // addresses are layout.m1BlockAddr(g) and layout.stEntryAddr(g).
    groups_.resize(layout.numGroups);
    const Addr st_base = layout.m1DataBytesPerChannel();
    unsigned chan = 0;
    std::uint64_t local = 0;
    unsigned region = 0;
    for (std::uint64_t g = 0; g < layout.numGroups; ++g) {
        GroupInfo &gi = groups_[g];
        gi.m1Addr = local * layout.blockBytes;
        Addr st_byte = st_base + local * layout.stEntryBytes;
        gi.stAddr = st_byte - st_byte % 64;
        gi.chan = &memory_.channel(chan);
        gi.region = static_cast<std::uint16_t>(region);
        gi.isPrivate = region < params.numPrograms;
        if (++chan == layout.numChannels) {
            chan = 0;
            ++local;
        }
        if (g % 2 == 1 && ++region == layout.numRegions)
            region = 0;
    }
}

HybridController::~HybridController()
{
    // Queued channel requests hold RequestPtrs whose deleter
    // recycles into reqPool_; drop them now, while the pool is
    // alive, instead of when the channels destruct after it.
    for (unsigned c = 0; c < memory_.numChannels(); ++c)
        memory_.channel(c).dropQueued();
}

void
HybridController::access(ProgramId program, Addr original_addr,
                         bool is_write, InlineCallback &&done)
{
    telemetry::ScopedTimer span(accessTimer_);
    panic_if(program < 0 || static_cast<unsigned>(program) >=
                                params_.numPrograms,
             "bad program id %d", program);
    std::uint32_t ob =
        static_cast<std::uint32_t>(original_addr >> blockShift_);
    std::uint64_t g = groupDiv_.mod(ob);
    unsigned s = groupDiv_.div(ob);

    PendingAccess *pa = paPool_.acquire();
    pa->program = program;
    pa->slot = s;
    pa->offset = original_addr & offsetMask_;
    pa->isWrite = is_write;
    pa->done = std::move(done);
    pa->next = nullptr;
    if (PROFESS_UNLIKELY(attr_ != nullptr)) {
        // Pool-resident timestamps: a recycled node may carry a
        // stale park stamp from its previous life.
        pa->parkTick = tickNever;
        pa->parkedOnSwap = false;
    }

    auto &ps = perProgram_[static_cast<unsigned>(program)];
    ++ps.served;
    if (is_write)
        ++ps.writes;
    else
        ++ps.reads;

    if (StcMeta *m = stc_.find(g))
        serve(g, *m, pa);
    else
        startFill(g, pa);
}

void
HybridController::serve(std::uint64_t group, StcMeta &meta,
                        PendingAccess *pa)
{
    GroupInfo &gi = groups_[group];
    if (meta.swapping) {
        if (PROFESS_UNLIKELY(attr_ != nullptr)) {
            // A fill-parked access re-parking behind a swap keeps
            // its original stamp; the whole wait lands in the swap
            // park bucket.
            if (pa->parkTick == tickNever)
                pa->parkTick = eq_.now();
            pa->parkedOnSwap = true;
        }
        gi.swapWaiters.append(pa);
        return;
    }

    unsigned loc = st_.locationOf(group, pa->slot);
    bool from_m1 = loc == 0;

    if (PROFESS_UNLIKELY(attr_ != nullptr) &&
        pa->parkTick != tickNever) {
        using telemetry::LatencyAttribution;
        auto tier = from_m1 ? LatencyAttribution::Tier::M1
                            : LatencyAttribution::Tier::M2;
        auto kind = pa->parkedOnSwap
                        ? LatencyAttribution::Kind::Swap
                        : (pa->isWrite
                               ? LatencyAttribution::Kind::Write
                               : LatencyAttribution::Kind::Read);
        attr_->record(pa->program, tier, kind,
                      LatencyAttribution::Phase::Park,
                      static_cast<double>(eq_.now() - pa->parkTick));
        pa->parkTick = tickNever;
        pa->parkedOnSwap = false;
    }
    meta.bump(pa->slot,
              pa->isWrite ? policy_.writeWeight() : 1u);

    if (from_m1) {
        perProgram_[static_cast<unsigned>(pa->program)]
            .servedFromM1++;
    }

    policy::AccessInfo info;
    info.group = group;
    info.slot = pa->slot;
    info.m1Slot = st_.slotInM1(group);
    info.region = gi.region;
    info.isWrite = pa->isWrite;
    info.fromM1 = from_m1;
    info.accessor = pa->program;
    info.m1Owner =
        oracle_.ownerOfBlock(layout_.blockIndex(group, info.m1Slot));
    info.meta = &meta;
    info.now = eq_.now();

    policy_.onServed(info);

    // Issue the 64-B device request.
    mem::RequestPtr req = mem::acquireRequest(reqPool_);
    req->module = from_m1 ? mem::Module::M1 : mem::Module::M2;
    req->isWrite = pa->isWrite;
    req->cls = mem::ReqClass::Demand;
    req->program = pa->program;
    req->addr = gi.m1Addr +
                (from_m1 ? 0 : (loc - 1) * m2Stride_) + pa->offset;
    req->onComplete = std::move(pa->done);
    paPool_.release(pa);
    gi.chan->push(std::move(req));

    // Migration consultation (not on the critical path, Sec. 3.2.3).
    if (!from_m1) {
        policy::Decision d = policy_.onM2Access(info);
        if (d == policy::Decision::Swap)
            startSwap(group, info.slot, info.m1Slot, meta);
    } else {
        policy_.onM1Access(info);
    }
}

void
HybridController::startFill(std::uint64_t group, PendingAccess *pa)
{
    GroupInfo &gi = groups_[group];
    if (PROFESS_UNLIKELY(attr_ != nullptr))
        pa->parkTick = eq_.now();
    gi.fillWaiters.append(pa);
    if (gi.fillInFlight)
        return;
    gi.fillInFlight = true;
    ++stats_[StFills];
    if (PROFESS_UNLIKELY(chrome_ != nullptr)) {
        chrome_->instant("st_fill", "hybrid", eq_.now(),
                         layout_.channelOf(group));
    }

    if (!params_.modelStTraffic) {
        eq_.scheduleIn(0, [this, group]() { finishFill(group); });
        return;
    }
    mem::RequestPtr req = mem::acquireRequest(reqPool_);
    req->module = mem::Module::M1;
    req->isWrite = false;
    req->cls = mem::ReqClass::St;
    req->addr = gi.stAddr;
    req->onComplete = [this, group]() { finishFill(group); };
    gi.chan->push(std::move(req));
}

void
HybridController::finishFill(std::uint64_t group)
{
    StcEviction ev;
    if (!stc_.insert(group, st_.entry(group).qac, ev)) {
        // Every way of the set is pinned by an in-flight swap;
        // retry once the channel has made progress.
        ++stats_[StcInsertRetries];
        eq_.scheduleIn(mem::swapLatencyCycles(
                           memory_.config().m1, memory_.config().m2,
                           layout_.blockBytes) /
                           4,
                       [this, group]() { finishFill(group); });
        return;
    }
    if (ev.valid) {
        ++stats_[StcEvictions];
        policy_.onStcEvict(ev.group, ev.meta, st_.entry(ev.group));
        if (ev.dirty) {
            ++stats_[StWritebacks];
            if (params_.modelStTraffic) {
                mem::RequestPtr wb = mem::acquireRequest(reqPool_);
                wb->module = mem::Module::M1;
                wb->isWrite = true;
                wb->cls = mem::ReqClass::St;
                wb->addr = groups_[ev.group].stAddr;
                channelOf(ev.group).push(std::move(wb));
            }
        }
    }
    StcMeta *m = stc_.peek(group);
    panic_if(m == nullptr, "fill lost its STC entry");
    m->lastFold = eq_.now();
    policy_.onStcInsert(group, *m);
    // ST/STC coherence after the fill (and the eviction it caused).
    PROFESS_AUDIT_ONLY(stc_.auditSet(group, st_);
                       if (ev.valid) st_.auditGroup(ev.group));

    GroupInfo &gi = groups_[group];
    PendingAccess *pa = gi.fillWaiters.take();
    panic_if(pa == nullptr, "fill without waiters");
    gi.fillInFlight = false;
    while (pa != nullptr) {
        PendingAccess *next = pa->next;
        // Re-fetch the meta pointer: serving earlier waiters can
        // trigger swaps but never evicts this just-inserted entry.
        serve(group, *stc_.peek(group), pa);
        pa = next;
    }
}

bool
HybridController::requestSwap(std::uint64_t group, unsigned slot)
{
    StcMeta *m = stc_.peek(group);
    if (m == nullptr || m->swapping)
        return false;
    unsigned loc = st_.locationOf(group, slot);
    if (loc == 0)
        return false; // already in M1
    startSwap(group, slot, st_.slotInM1(group), *m);
    return true;
}

void
HybridController::startSwap(std::uint64_t group,
                            unsigned promote_slot, unsigned m1_slot,
                            StcMeta &meta, unsigned attempt,
                            Tick first_abort)
{
    panic_if(meta.swapping, "double swap on group %llu",
             static_cast<unsigned long long>(group));
    meta.swapping = true;
    meta.dirty = true;
    unsigned loc = st_.locationOf(group, promote_slot);
    panic_if(loc == 0, "promoting a block already in M1");

    GroupInfo &gi = groups_[group];
    if (PROFESS_UNLIKELY(chrome_ != nullptr)) {
        // Profiled variant: span from request to completion (sim
        // ticks), one track per channel.  The track is looked up
        // again at completion so the capture fits the callback's
        // inline storage (no heap allocation per swap).
        Tick begin = eq_.now();
        gi.chan->executeSwap(
            gi.m1Addr, gi.m1Addr + (loc - 1) * m2Stride_,
            layout_.blockBytes,
            [this, group, promote_slot, m1_slot, attempt,
             first_abort, begin]() {
                swapDone(group, promote_slot, m1_slot, attempt,
                         first_abort);
                if (PROFESS_UNLIKELY(chrome_ != nullptr)) {
                    chrome_->complete("swap", "hybrid", begin,
                                      eq_.now() - begin,
                                      layout_.channelOf(group));
                }
            },
            policy_.slowSwap());
        return;
    }
    gi.chan->executeSwap(
        gi.m1Addr, gi.m1Addr + (loc - 1) * m2Stride_,
        layout_.blockBytes,
        [this, group, promote_slot, m1_slot, attempt,
         first_abort]() {
            swapDone(group, promote_slot, m1_slot, attempt,
                     first_abort);
        },
        policy_.slowSwap());
}

void
HybridController::swapDone(std::uint64_t group, unsigned promote_slot,
                           unsigned m1_slot, unsigned attempt,
                           Tick first_abort)
{
    if (PROFESS_UNLIKELY(faults_ != nullptr) &&
        faults_->swapAborts(group, eq_.now())) {
        abortSwap(group, promote_slot, m1_slot, attempt,
                  attempt == 0 ? eq_.now() : first_abort);
        return;
    }
    // A swap that needed retries finally landed: its retry latency
    // is first abort to commit.
    if (PROFESS_UNLIKELY(attempt > 0))
        swapRetryLat_.add(static_cast<double>(eq_.now() -
                                              first_abort));
    finishSwap(group, promote_slot, m1_slot);
}

void
HybridController::finishSwap(std::uint64_t group,
                             unsigned promote_slot, unsigned m1_slot)
{
    st_.swapSlots(group, promote_slot, m1_slot);
    ++swaps_;

    StcMeta *m = stc_.peek(group);
    panic_if(m == nullptr, "swapped group lost its STC entry");
    m->swapping = false;
    // Permutation integrity after every completed swap.
    PROFESS_AUDIT_ONLY(st_.auditGroup(group);
                       stc_.auditSet(group, st_));

    ProgramId prom_owner =
        oracle_.ownerOfBlock(layout_.blockIndex(group, promote_slot));
    ProgramId dem_owner =
        oracle_.ownerOfBlock(layout_.blockIndex(group, m1_slot));
    policy_.onSwapComplete(group, promote_slot, m1_slot, prom_owner,
                           dem_owner, privateRegion(group));

    PendingAccess *pa = groups_[group].swapWaiters.take();
    while (pa != nullptr) {
        PendingAccess *next = pa->next;
        serve(group, *stc_.peek(group), pa);
        pa = next;
    }
}

void
HybridController::abortSwap(std::uint64_t group,
                            unsigned promote_slot, unsigned m1_slot,
                            unsigned attempt, Tick first_abort)
{
    (void)m1_slot;
    ++stats_[SwapAborts];
    StcMeta *m = stc_.peek(group);
    panic_if(m == nullptr, "aborted swap lost its STC entry");
    // Rollback is implicit: swapSlots() never ran, so the ATB and
    // QACs still describe the pre-swap state.  Clearing the swapping
    // flag re-arms the group.
    m->swapping = false;
    PROFESS_AUDIT_ONLY(st_.auditGroup(group);
                       stc_.auditSet(group, st_));

    // Serve waiters before deciding on a retry so an abort can never
    // wedge the group: they read the unchanged pre-swap locations.
    // (Serving them may itself start a fresh swap; the retry below
    // then finds the group busy and drops out.)
    PendingAccess *pa = groups_[group].swapWaiters.take();
    while (pa != nullptr) {
        PendingAccess *next = pa->next;
        serve(group, *stc_.peek(group), pa);
        pa = next;
    }

    if (attempt >= faults_->swapMaxRetries()) {
        ++stats_[SwapDegraded];
        // A dropped swap still closes its retry window.
        swapRetryLat_.add(
            static_cast<double>(eq_.now() - first_abort));
        faults_->noteSwapDegraded(group, eq_.now());
        return;
    }
    ++stats_[SwapRetries];
    faults_->noteSwapRetry(group, eq_.now());
    Cycles backoff = faults_->swapRetryBackoff() << attempt;
    eq_.scheduleIn(backoff, [this, group, promote_slot, attempt,
                             first_abort]() {
        retrySwap(group, promote_slot, attempt + 1, first_abort);
    });
}

void
HybridController::retrySwap(std::uint64_t group,
                            unsigned promote_slot, unsigned attempt,
                            Tick first_abort)
{
    StcMeta *m = stc_.peek(group);
    unsigned loc = (m != nullptr && !m->swapping)
                       ? st_.locationOf(group, promote_slot)
                       : 0;
    if (loc == 0) {
        // Entry evicted, another swap already in flight, or the
        // block reached M1 by other means: the retry is moot.
        ++stats_[SwapRetryDropped];
        swapRetryLat_.add(
            static_cast<double>(eq_.now() - first_abort));
        return;
    }
    startSwap(group, promote_slot, st_.slotInM1(group), *m, attempt,
              first_abort);
}

bool
HybridController::quiescent() const
{
    for (const GroupInfo &gi : groups_) {
        if (gi.fillInFlight || !gi.fillWaiters.empty() ||
            !gi.swapWaiters.empty())
            return false;
    }
    bool swapping = false;
    stc_.forEach([&swapping](std::uint64_t, const StcMeta &m) {
        swapping = swapping || m.swapping;
    });
    return !swapping;
}

void
HybridController::auditStcQacCoherence() const
{
    stc_.forEach([this](std::uint64_t group, const StcMeta &m) {
        if (m.swapping)
            return;
        const StEntry &e = st_.entry(group);
        for (unsigned s = 0; s < layout_.slotsPerGroup; ++s) {
            profess_audit(
                m.qacAtInsert[s] == e.qac[s],
                "stale q_I snapshot: group %llu slot %u cached %u "
                "live %u",
                static_cast<unsigned long long>(group), s,
                static_cast<unsigned>(m.qacAtInsert[s]),
                static_cast<unsigned>(e.qac[s]));
        }
    });
}

void
HybridController::startPeriodic()
{
    if (policy_.periodicInterval() != 0 && !periodicEnabled_) {
        periodicEnabled_ = true;
        schedulePeriodic();
    }
    if (params_.statsFoldInterval != 0 && !foldEnabled_) {
        foldEnabled_ = true;
        scheduleStatsFold();
    }
}

void
HybridController::stopPeriodic()
{
    periodicEnabled_ = false;
    foldEnabled_ = false;
}

void
HybridController::scheduleStatsFold()
{
    eq_.scheduleIn(params_.statsFoldInterval, [this]() {
        if (!foldEnabled_)
            return;
        foldLongResidents();
        scheduleStatsFold();
    });
}

void
HybridController::foldLongResidents()
{
    Tick now = eq_.now();
    stc_.forEach([&](std::uint64_t group, StcMeta &meta) {
        if (meta.swapping)
            return;
        // Harvest, per block, counters that have been quiet for a
        // whole sweep: the block's access burst is over, so fold it
        // into the policy statistics exactly as an eviction would
        // and restart that block's counting.  Blocks accessed since
        // the previous sweep keep accumulating so the depletion
        // information of Sec. 3.2.3 stays intact.
        std::uint32_t touched = meta.touchedMask;
        meta.touchedMask = 0;
        StcMeta quiet = meta;
        bool any = false;
        for (unsigned s = 0; s < layout_.slotsPerGroup; ++s) {
            bool active = (touched & (1u << s)) != 0;
            // A saturated counter carries no further information:
            // fold it even mid-burst, otherwise a continuously hot
            // block freezes at rem_cnt <= 0 and can never promote.
            bool saturated = meta.ac[s] >= 63;
            if ((active && !saturated) || meta.ac[s] == 0)
                quiet.ac[s] = 0;
            else
                any = true;
        }
        if (!any)
            return;
        policy_.onStcEvict(group, quiet, st_.entry(group));
        for (unsigned s = 0; s < layout_.slotsPerGroup; ++s) {
            if (quiet.ac[s] > 0) {
                meta.ac[s] = 0;
                meta.qacAtInsert[s] = st_.entry(group).qac[s];
                // Only a genuinely quiet block is depleted; a
                // saturated-but-active one is still bursting.
                if ((touched & (1u << s)) == 0)
                    meta.depletedMask |= 1u << s;
            }
        }
        meta.dirty = true;
        meta.lastFold = now;
        ++stats_[StatsFolds];
    });
}

void
HybridController::schedulePeriodic()
{
    eq_.scheduleIn(policy_.periodicInterval(), [this]() {
        if (!periodicEnabled_)
            return;
        policy_.onPeriodic();
        schedulePeriodic();
    });
}

void
HybridController::resetStats()
{
    for (auto &p : perProgram_)
        p = ProgramStats{};
    swaps_ = 0;
    stats_.reset();
    swapRetryLat_.reset();
    stc_.resetStats();
}

std::uint64_t
HybridController::servedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &p : perProgram_)
        total += p.served;
    return total;
}

const HybridController::ProgramStats &
HybridController::programStats(ProgramId p) const
{
    panic_if(p < 0 ||
                 static_cast<unsigned>(p) >= perProgram_.size(),
             "bad program id %d", p);
    return perProgram_[static_cast<unsigned>(p)];
}

void
HybridController::registerTelemetry(
    telemetry::StatRegistry &registry, const std::string &prefix)
{
    registry.addSet(prefix, stats_);
    registry.addCounter(prefix + ".swaps", swaps_);
    registry.addHistogram(prefix + ".swap_retry_latency",
                          swapRetryLat_);
    stc_.registerTelemetry(registry, prefix + ".stc");
    for (unsigned i = 0; i < perProgram_.size(); ++i) {
        std::string pp = prefix + ".p" + std::to_string(i);
        const ProgramStats &ps = perProgram_[i];
        registry.addCounter(pp + ".served", ps.served);
        registry.addCounter(pp + ".served_from_m1", ps.servedFromM1);
        registry.addCounter(pp + ".reads", ps.reads);
        registry.addCounter(pp + ".writes", ps.writes);
    }
    policy_.registerTelemetry(registry,
                              std::string("policy.") + policy_.name());
}

} // namespace hybrid

} // namespace profess
