#include "mem/channel.hh"

#include <algorithm>

#include "common/latency_attr.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace mem
{

Channel::Channel(EventQueue &eq, const TimingParams &m1t,
                 const TimingParams &m2t, const ModuleGeometry &m1g,
                 const ModuleGeometry &m2g, const EnergyParams &ep,
                 const ChannelConfig &cfg)
    : eq_(eq), m1t_(m1t), m2t_(m2t), m1g_(m1g), m2g_(m2g), cfg_(cfg),
      m2BaseTwr_(m2t.tWR), m1Banks_(m1g.banks),
      banks_(m1g.banks + m2g.banks),
      hitRow_(m1g.banks + m2g.banks, noHitRow), energy_(ep)
{
    fatal_if(m1g.rowsPerBank > noHitRow || m2g.rowsPerBank > noHitRow,
             "rows per bank must fit the 32-bit scheduler key");
    nextRefresh_ = m1t_.tREFI == 0 ? tickNever : m1t_.tREFI;
    readQ_.reserve(64);
    writeQ_.reserve(64);
}

void
Channel::push(RequestPtr req)
{
    req->enqueueTick = eq_.now();
    DecodedAddr d = geometry(req->module).decode(req->addr);
    if (req->cls == ReqClass::Demand)
        ++stats_[req->isWrite ? DemandWrites : DemandReads];
    else
        ++stats_[req->isWrite ? StWrites : StReads];
    std::uint32_t bank =
        d.bank + (req->module == Module::M2 ? m1Banks_ : 0);
    auto &q = req->isWrite ? writeQ_ : readQ_;
    q.push_back(QueueEntry{req.release(), bank,
                           static_cast<std::uint32_t>(d.row)});
    trySchedule();
}

void
Channel::executeSwap(Addr m1_addr, Addr m2_addr,
                     std::uint64_t block_bytes,
                     InlineCallback done, bool slow)
{
    swapQ_.push(PendingSwap{m1_addr, m2_addr, block_bytes,
                            std::move(done), slow});
    trySchedule();
}

Cycles
Channel::swapLatency(std::uint64_t block_bytes) const
{
    return swapLatencyCycles(m1t_, m2t_, block_bytes);
}

void
Channel::setM2WriteScale(double scale)
{
    double twr = static_cast<double>(m2BaseTwr_) * scale;
    m2t_.tWR = twr < 1.0 ? 1 : static_cast<Cycles>(twr + 0.5);
}

void
Channel::injectBankBusy(Module m, Tick until)
{
    auto first = banks_.begin() + (m == Module::M1 ? 0 : m1Banks_);
    auto last = m == Module::M1 ? banks_.begin() + m1Banks_
                                : banks_.end();
    for (auto b = first; b != last; ++b) {
        b->readyAct = std::max(b->readyAct, until);
        b->readyCol = std::max(b->readyCol, until);
    }
    requestWake(until);
}

void
Channel::resetStats()
{
    stats_.reset();
    readLat_.reset();
    energy_ = EnergyAccount(energy_.params());
}

void
Channel::applyRefresh(Tick now)
{
    if (m1t_.tREFI == 0)
        return;
    while (nextRefresh_ <= now) {
        Tick end = nextRefresh_ + m1t_.tRFC;
        for (std::uint32_t i = 0; i < m1Banks_; ++i) {
            Bank &b = banks_[i];
            b.open = false;
            b.readyAct = std::max(b.readyAct, end);
            b.readyCol = std::max(b.readyCol, end);
            hitRow_[i] = noHitRow;
        }
        ++stats_[M1Refreshes];
        nextRefresh_ += m1t_.tREFI;
    }
}

void
Channel::requestWake(Tick when)
{
    Tick now = eq_.now();
    if (when <= now)
        when = now;
    // An earlier-or-equal pending wake already covers this one.
    if (wakeAt_ != tickNever && wakeAt_ <= when && wakeAt_ > now)
        return;
    wakeAt_ = when;
    eq_.schedule(when, [this, when]() {
        if (wakeAt_ == when)
            wakeAt_ = tickNever;
        trySchedule();
    });
}

std::size_t
Channel::pickNext(const std::vector<QueueEntry> &q) const
{
    // FR-FCFS-Cap: oldest row hit whose row has not exhausted the
    // consecutive-hit cap (hitRow_ encodes both conditions);
    // otherwise the oldest request.
    const std::uint32_t *hit_row = hitRow_.data();
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (hit_row[q[i].bank] == q[i].row)
            return i;
    }
    return 0;
}

void
Channel::commit(const QueueEntry &e)
{
    Tick now = eq_.now();
    Request *req = e.req;
    bool m2 = req->module == Module::M2;
    const TimingParams &t = timing(req->module);
    Bank &bk = banks_[e.bank];

    bool hit = bk.open && bk.row == e.row;
    Tick col_ready;
    if (hit) {
        col_ready = std::max(now, bk.readyCol);
        ++bk.consecHits;
        ++stats_[RowHits];
    } else {
        Tick act_start;
        if (bk.open) {
            Tick pre_start = std::max(
                {now, bk.lastAct + t.tRAS, bk.wrRecoverEnd,
                 bk.readyCol});
            act_start = std::max(pre_start + t.tRP, bk.readyAct);
        } else {
            act_start = std::max(now, bk.readyAct);
        }
        bk.open = true;
        bk.row = e.row;
        bk.lastAct = act_start;
        bk.readyAct = act_start + t.tRC; // activate-to-activate
        bk.consecHits = 1;
        col_ready = act_start + t.tRCD;
        energy_.addActivate(m2);
        ++stats_[m2 ? M2Activates : M1Activates];
        ++stats_[RowMisses];
    }

    Cycles lat = req->isWrite ? t.tWL : t.tCL;
    Tick bus_earliest = busFreeAt_;
    if (req->isWrite != lastBusWrite_)
        bus_earliest += req->isWrite ? t.tRTW : t.tWTR;
    Tick data_start = std::max(col_ready + lat, bus_earliest);
    Tick data_end = data_start + t.tBurst;

    bk.readyCol = data_start - lat + t.tBurst;
    if (req->isWrite) {
        bk.wrRecoverEnd = data_end + t.tWR;
        if (t.writeRecoveryPerAccess)
            bk.readyCol = data_end + t.tWR;
    }
    // FR-FCFS-Cap (Sec. 4.1): after rowHitCap consecutive hits the
    // row is closed so one hot row cannot monopolize the bank.
    if (bk.consecHits >= cfg_.rowHitCap) {
        Tick pre_start =
            std::max({data_end, bk.wrRecoverEnd, bk.readyCol,
                      bk.lastAct + t.tRAS});
        bk.open = false;
        bk.consecHits = 0;
        bk.readyAct = std::max(bk.readyAct, pre_start + t.tRP);
    }
    updateHitRow(e.bank);
    busFreeAt_ = data_end;
    lastBusWrite_ = req->isWrite;
    stats_[BusBusyCycles] += t.tBurst;

    // Latency attribution (observational only): decompose this
    // request's life into queueing (arrival to commit), bank-busy
    // (commit to burst start) and transfer (the burst).
    if (PROFESS_UNLIKELY(attr_ != nullptr) &&
        req->cls == ReqClass::Demand) {
        using telemetry::LatencyAttribution;
        auto tier = m2 ? LatencyAttribution::Tier::M2
                       : LatencyAttribution::Tier::M1;
        auto kind = req->isWrite ? LatencyAttribution::Kind::Write
                                 : LatencyAttribution::Kind::Read;
        attr_->record(req->program, tier, kind,
                      LatencyAttribution::Phase::Queue,
                      static_cast<double>(now - req->enqueueTick));
        attr_->record(req->program, tier, kind,
                      LatencyAttribution::Phase::BankBusy,
                      static_cast<double>(data_start - now));
        attr_->record(req->program, tier, kind,
                      LatencyAttribution::Phase::Transfer,
                      static_cast<double>(t.tBurst));
    }

    if (req->isWrite)
        energy_.addWrite(m2);
    else
        energy_.addRead(m2);
    ++stats_[m2 ? M2Accesses : M1Accesses];

    eq_.schedule(data_end, [this, raw = req]() {
        RequestPtr owner(raw); // recycled (or freed) on return
        raw->completeTick = eq_.now();
        if (!raw->isWrite && raw->cls == ReqClass::Demand) {
            readLat_.add(static_cast<double>(raw->completeTick -
                                             raw->enqueueTick));
        }
        panic_if(inflight_ == 0, "completion with no inflight");
        --inflight_;
        if (raw->onComplete)
            raw->onComplete();
        trySchedule();
    });
}

void
Channel::maybeStartSwap()
{
    Tick now = eq_.now();
    if (swapQ_.empty() || now < swapEndTick_)
        return;
    Tick start = std::max(now, busFreeAt_);
    PendingSwap s = swapQ_.pop();

    Cycles dur = swapLatency(s.blockBytes);
    if (s.slow)
        dur *= 2; // restore original mapping, then swap (Table 1)
    Tick end = start + dur;
    swapEndTick_ = end;
    busFreeAt_ = end;
    lastBusWrite_ = true;

    // Traffic and energy of the swap: block-sized reads and writes
    // on both modules, one activation each (2-KB blocks sit within
    // a single 8-KB row).
    std::uint64_t bursts = ceilDiv(s.blockBytes, 64);
    for (std::uint64_t i = 0; i < bursts; ++i) {
        energy_.addRead(false);
        energy_.addRead(true);
        energy_.addWrite(false);
        energy_.addWrite(true);
    }
    energy_.addActivate(false);
    energy_.addActivate(true);
    ++stats_[M1Activates];
    ++stats_[M2Activates];
    ++stats_[Swaps];
    stats_[SwapBusyCycles] += dur;

    // Involved banks end up with the swapped rows open.
    DecodedAddr d1 = m1g_.decode(s.m1Addr);
    DecodedAddr d2 = m2g_.decode(s.m2Addr);
    std::uint32_t f1 = d1.bank;
    std::uint32_t f2 = m1Banks_ + d2.bank;
    for (std::uint32_t f : {f1, f2}) {
        Bank &b = banks_[f];
        b.open = true;
        b.readyCol = end;
        b.readyAct = end;
        b.lastAct = start;
        b.wrRecoverEnd = end;
        b.consecHits = 0;
    }
    banks_[f1].row = d1.row;
    banks_[f2].row = d2.row;
    updateHitRow(f1);
    updateHitRow(f2);

    activeSwapDones_.push(std::move(s.done));
    eq_.schedule(end, [this]() {
        InlineCallback done = activeSwapDones_.pop();
        if (done)
            done();
        trySchedule();
    });
}

void
Channel::trySchedule()
{
    telemetry::ScopedTimer span(schedTimer_);
    Tick now = eq_.now();
    applyRefresh(now);
    if (now < swapEndTick_) {
        requestWake(swapEndTick_);
        return;
    }
    maybeStartSwap();
    if (now < swapEndTick_) {
        requestWake(swapEndTick_);
        return;
    }
    while (inflight_ < cfg_.maxInflight) {
        if (drainingWrites_) {
            if (writeQ_.size() <= cfg_.writeLowMark)
                drainingWrites_ = false;
        } else if (writeQ_.size() >= cfg_.writeHighMark) {
            drainingWrites_ = true;
        }
        bool use_writes =
            drainingWrites_ || (readQ_.empty() && !writeQ_.empty());
        auto &q = use_writes ? writeQ_ : readQ_;
        if (q.empty())
            break;
        std::size_t idx = pickNext(q);
        QueueEntry e = q[idx];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
        ++inflight_;
        commit(e);
    }
}

void
Channel::registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const
{
    registry.addSet(prefix, stats_);
    registry.addProbe(prefix + ".read_queue", [this]() {
        return static_cast<double>(readQueueSize());
    });
    registry.addProbe(prefix + ".write_queue", [this]() {
        return static_cast<double>(writeQueueSize());
    });
    registry.addProbe(prefix + ".read_latency_avg", [this]() {
        return readLat_.mean();
    });
}

} // namespace mem

} // namespace profess
