/**
 * @file
 * Lockstep check of mem::Channel against a deliberately naive
 * reference FR-FCFS-Cap channel.
 *
 * RefChannel restates the Sec. 4.1 channel model with the plainest
 * data structures available: std::deque queues of plain request
 * records, bank structs looked up by module and index, every queued
 * request re-decoded on every scan, and no caches, pools or
 * pre-resolved counters.  It keeps the points at which a scheduling
 * pass runs (push, swap request, completion, swap end and wake-ups)
 * because those are part of the timing model: a pass commits at the
 * tick it runs.
 *
 * Both channels get the same seeded random stimulus, each on its own
 * EventQueue, and advance window by window.  After every window they
 * must agree on the completion log (request and swap ids with their
 * ticks; the shared data bus serialises bursts, so completion order
 * is commit order), the queue depths and the number of events
 * executed.  At the end they must also agree on stats(), the
 * demand-read latency and the energy account.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/event.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/channel.hh"

using namespace profess;
using namespace profess::mem;

namespace
{

/** One completion: a request or a swap id and its tick. */
struct Completion
{
    bool swap;
    std::uint64_t id;
    Tick tick;

    bool
    operator==(const Completion &o) const
    {
        return swap == o.swap && id == o.id && tick == o.tick;
    }
};

using Log = std::vector<Completion>;

/** The naive model.  Mirrors mem::Channel's public behaviour. */
class RefChannel
{
  public:
    RefChannel(EventQueue &eq, const TimingParams &m1t,
               const TimingParams &m2t, const ModuleGeometry &m1g,
               const ModuleGeometry &m2g, const ChannelConfig &cfg)
        : eq_(eq), cfg_(cfg), m2BaseTwr_(m2t.tWR)
    {
        timing_[0] = m1t;
        timing_[1] = m2t;
        geom_[0] = m1g;
        geom_[1] = m2g;
        banks_[0].resize(m1g.banks);
        banks_[1].resize(m2g.banks);
        nextRefresh_ = m1t.tREFI == 0 ? tickNever : m1t.tREFI;
        // Every counter mem::Channel declares, zero until used.
        for (const char *name :
             {"demand_reads", "demand_writes", "st_reads", "st_writes",
              "row_hits", "row_misses", "m1_activates", "m2_activates",
              "m1_accesses", "m2_accesses", "bus_busy_cycles",
              "m1_refreshes", "swaps", "swap_busy_cycles"})
            counters_[name] = 0;
    }

    void
    push(std::uint64_t id, Module m, Addr addr, bool write,
         ReqClass cls, Log *log)
    {
        Req r{id, m, write, cls, addr, eq_.now(), log};
        std::string name = cls == ReqClass::Demand ? "demand_" : "st_";
        counters_[name + (write ? "writes" : "reads")] += 1;
        (write ? writeQ_ : readQ_).push_back(r);
        schedulePass();
    }

    void
    executeSwap(std::uint64_t id, Addr m1_addr, Addr m2_addr,
                std::uint64_t block_bytes, bool slow, Log *log)
    {
        swapQ_.push_back(Swap{id, m1_addr, m2_addr, block_bytes, slow,
                              log});
        schedulePass();
    }

    void
    injectBankBusy(Module m, Tick until)
    {
        for (Bank &b : banks_[idx(m)]) {
            b.readyAct = std::max(b.readyAct, until);
            b.readyCol = std::max(b.readyCol, until);
        }
        requestWake(until);
    }

    void
    setM2WriteScale(double scale)
    {
        double twr = static_cast<double>(m2BaseTwr_) * scale;
        timing_[1].tWR = twr < 1.0 ? 1 : static_cast<Cycles>(twr + 0.5);
    }

    std::size_t readQueueSize() const { return readQ_.size(); }
    std::size_t writeQueueSize() const { return writeQ_.size(); }
    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }
    const RunningStat &readLatency() const { return readLat_; }
    const EnergyAccount &energy() const { return energy_; }

    /** @return times the write-drain flag turned on. */
    std::uint64_t drainStarts() const { return drainStarts_; }

  private:
    struct Req
    {
        std::uint64_t id;
        Module module;
        bool isWrite;
        ReqClass cls;
        Addr addr;
        Tick enqueue;
        Log *log;
    };

    struct Swap
    {
        std::uint64_t id;
        Addr m1Addr;
        Addr m2Addr;
        std::uint64_t blockBytes;
        bool slow;
        Log *log;
    };

    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick readyCol = 0;
        Tick readyAct = 0;
        Tick lastAct = 0;
        Tick wrRecoverEnd = 0;
        unsigned consecHits = 0;
    };

    static unsigned idx(Module m) { return m == Module::M1 ? 0 : 1; }

    Bank &
    bankOf(Module m, Addr addr)
    {
        return banks_[idx(m)][geom_[idx(m)].decode(addr).bank];
    }

    std::uint64_t
    rowOf(Module m, Addr addr) const
    {
        return geom_[idx(m)].decode(addr).row;
    }

    void
    applyRefresh(Tick now)
    {
        if (timing_[0].tREFI == 0)
            return;
        while (nextRefresh_ <= now) {
            Tick end = nextRefresh_ + timing_[0].tRFC;
            for (Bank &b : banks_[0]) {
                b.open = false;
                b.readyAct = std::max(b.readyAct, end);
                b.readyCol = std::max(b.readyCol, end);
            }
            counters_["m1_refreshes"] += 1;
            nextRefresh_ += timing_[0].tREFI;
        }
    }

    void
    requestWake(Tick when)
    {
        Tick now = eq_.now();
        if (when <= now)
            when = now;
        if (wakeAt_ != tickNever && wakeAt_ <= when && wakeAt_ > now)
            return;
        wakeAt_ = when;
        eq_.schedule(when, [this, when]() {
            if (wakeAt_ == when)
                wakeAt_ = tickNever;
            schedulePass();
        });
    }

    /** FR-FCFS-Cap: the oldest request whose bank has its row open
     *  below the hit cap, else the oldest request. */
    std::deque<Req>::iterator
    pick(std::deque<Req> &q)
    {
        for (auto it = q.begin(); it != q.end(); ++it) {
            const Bank &b = bankOf(it->module, it->addr);
            if (b.open && b.row == rowOf(it->module, it->addr) &&
                b.consecHits < cfg_.rowHitCap)
                return it;
        }
        return q.begin();
    }

    void
    schedulePass()
    {
        Tick now = eq_.now();
        applyRefresh(now);
        if (now < swapEnd_) {
            requestWake(swapEnd_);
            return;
        }
        startSwap();
        if (now < swapEnd_) {
            requestWake(swapEnd_);
            return;
        }
        while (inflight_ < cfg_.maxInflight) {
            if (draining_) {
                if (writeQ_.size() <= cfg_.writeLowMark)
                    draining_ = false;
            } else if (writeQ_.size() >= cfg_.writeHighMark) {
                draining_ = true;
                ++drainStarts_;
            }
            bool writes =
                draining_ || (readQ_.empty() && !writeQ_.empty());
            std::deque<Req> &q = writes ? writeQ_ : readQ_;
            if (q.empty())
                break;
            auto it = pick(q);
            Req r = *it;
            q.erase(it);
            ++inflight_;
            commit(r);
        }
    }

    void
    commit(const Req &r)
    {
        Tick now = eq_.now();
        bool m2 = r.module == Module::M2;
        const TimingParams &t = timing_[idx(r.module)];
        Bank &b = bankOf(r.module, r.addr);
        std::uint64_t row = rowOf(r.module, r.addr);

        Tick col_ready;
        if (b.open && b.row == row) {
            col_ready = std::max(now, b.readyCol);
            ++b.consecHits;
            counters_["row_hits"] += 1;
        } else {
            Tick act = std::max(now, b.readyAct);
            if (b.open) {
                Tick pre = std::max({now, b.lastAct + t.tRAS,
                                     b.wrRecoverEnd, b.readyCol});
                act = std::max(pre + t.tRP, b.readyAct);
            }
            b.open = true;
            b.row = row;
            b.lastAct = act;
            b.readyAct = act + t.tRC;
            b.consecHits = 1;
            col_ready = act + t.tRCD;
            energy_.addActivate(m2);
            counters_[m2 ? "m2_activates" : "m1_activates"] += 1;
            counters_["row_misses"] += 1;
        }

        Cycles lat = r.isWrite ? t.tWL : t.tCL;
        Tick bus = busFree_;
        if (r.isWrite != lastWrite_)
            bus += r.isWrite ? t.tRTW : t.tWTR;
        Tick data_start = std::max(col_ready + lat, bus);
        Tick data_end = data_start + t.tBurst;
        b.readyCol = data_start - lat + t.tBurst;
        if (r.isWrite) {
            b.wrRecoverEnd = data_end + t.tWR;
            if (t.writeRecoveryPerAccess)
                b.readyCol = data_end + t.tWR;
        }
        if (b.consecHits >= cfg_.rowHitCap) {
            Tick pre = std::max({data_end, b.wrRecoverEnd, b.readyCol,
                                 b.lastAct + t.tRAS});
            b.open = false;
            b.consecHits = 0;
            b.readyAct = std::max(b.readyAct, pre + t.tRP);
        }
        busFree_ = data_end;
        lastWrite_ = r.isWrite;
        counters_["bus_busy_cycles"] += t.tBurst;
        if (r.isWrite)
            energy_.addWrite(m2);
        else
            energy_.addRead(m2);
        counters_[m2 ? "m2_accesses" : "m1_accesses"] += 1;

        eq_.schedule(data_end, [this, r]() {
            Tick done = eq_.now();
            if (!r.isWrite && r.cls == ReqClass::Demand)
                readLat_.add(static_cast<double>(done - r.enqueue));
            --inflight_;
            r.log->push_back(Completion{false, r.id, done});
            schedulePass();
        });
    }

    void
    startSwap()
    {
        Tick now = eq_.now();
        if (swapQ_.empty() || now < swapEnd_)
            return;
        Swap s = swapQ_.front();
        swapQ_.pop_front();
        Tick start = std::max(now, busFree_);
        Cycles dur =
            swapLatencyCycles(timing_[0], timing_[1], s.blockBytes);
        if (s.slow)
            dur *= 2;
        Tick end = start + dur;
        swapEnd_ = end;
        busFree_ = end;
        lastWrite_ = true;

        for (std::uint64_t i = 0; i < ceilDiv(s.blockBytes, 64); ++i) {
            energy_.addRead(false);
            energy_.addRead(true);
            energy_.addWrite(false);
            energy_.addWrite(true);
        }
        energy_.addActivate(false);
        energy_.addActivate(true);
        counters_["m1_activates"] += 1;
        counters_["m2_activates"] += 1;
        counters_["swaps"] += 1;
        counters_["swap_busy_cycles"] += dur;

        Bank &b1 = bankOf(Module::M1, s.m1Addr);
        Bank &b2 = bankOf(Module::M2, s.m2Addr);
        for (Bank *b : {&b1, &b2}) {
            b->open = true;
            b->readyCol = end;
            b->readyAct = end;
            b->lastAct = start;
            b->wrRecoverEnd = end;
            b->consecHits = 0;
        }
        b1.row = rowOf(Module::M1, s.m1Addr);
        b2.row = rowOf(Module::M2, s.m2Addr);

        eq_.schedule(end, [this, s]() {
            s.log->push_back(Completion{true, s.id, eq_.now()});
            schedulePass();
        });
    }

    EventQueue &eq_;
    TimingParams timing_[2];
    ModuleGeometry geom_[2];
    ChannelConfig cfg_;
    Cycles m2BaseTwr_;
    std::vector<Bank> banks_[2];
    std::deque<Req> readQ_, writeQ_;
    std::deque<Swap> swapQ_;
    Tick busFree_ = 0;
    bool lastWrite_ = false;
    bool draining_ = false;
    std::uint64_t drainStarts_ = 0;
    unsigned inflight_ = 0;
    Tick swapEnd_ = 0;
    Tick nextRefresh_ = 0;
    Tick wakeAt_ = tickNever;
    std::map<std::string, std::uint64_t> counters_;
    RunningStat readLat_;
    EnergyAccount energy_;
};

/** One stimulus step, applied to both channels at `when`. */
struct Action
{
    enum Kind { Push, Swap, BankBusy, WriteScale } kind;
    Tick when;
    std::uint64_t id = 0;
    Module module = Module::M1;
    Addr addr = 0;
    Addr addr2 = 0;
    bool write = false;
    bool slow = false;
    ReqClass cls = ReqClass::Demand;
    Tick until = 0;
    double scale = 1.0;
};

/** Knobs of one random stimulus stream. */
struct StreamShape
{
    std::uint64_t seed;
    unsigned bursts;      ///< arrival bursts
    unsigned maxBurst;    ///< requests per burst, at most
    Tick maxGap;          ///< ticks between bursts, at most
    unsigned banksUsed;   ///< banks the addresses spread over
    unsigned rowsUsed;    ///< rows per bank the addresses use
    unsigned swapPct;     ///< chance per burst of a swap
    unsigned busyPct;     ///< chance per burst of a bank-busy window
    unsigned scalePct;    ///< chance per burst of an M2 tWR change
};

class Lockstep
{
  public:
    Lockstep(const ChannelConfig &cfg, bool refresh)
    {
        m1_ = m1Timing();
        m2_ = m2Timing();
        if (!refresh)
            m1_.tREFI = 0;
        g1_ = ModuleGeometry::withCapacity(1 * MiB);
        g2_ = ModuleGeometry::withCapacity(8 * MiB);
        dut_ = std::make_unique<Channel>(dutEq_, m1_, m2_, g1_, g2_,
                                         EnergyParams{}, cfg);
        ref_ = std::make_unique<RefChannel>(refEq_, m1_, m2_, g1_, g2_,
                                            cfg);
    }

    /** Build a random stimulus stream of the given shape. */
    std::vector<Action>
    stream(const StreamShape &s) const
    {
        Rng rng(s.seed, 0x5eedull);
        std::vector<Action> out;
        std::uint64_t next_id = 0;
        Tick t = 0;
        for (unsigned b = 0; b < s.bursts; ++b) {
            t += rng.below64(s.maxGap + 1);
            // Each burst has its own write share, so some bursts
            // fill the write queue past the high watermark.
            unsigned write_pct = rng.below(101);
            unsigned n = 1 + rng.below(s.maxBurst);
            for (unsigned i = 0; i < n; ++i) {
                Action a{Action::Push, t};
                a.id = next_id++;
                a.module = rng.below(2) ? Module::M2 : Module::M1;
                a.addr = addrIn(a.module, rng, s);
                a.write = rng.below(100) < write_pct;
                a.cls = rng.below(5) == 0 ? ReqClass::St
                                          : ReqClass::Demand;
                out.push_back(a);
            }
            if (rng.below(100) < s.swapPct) {
                Action a{Action::Swap, t};
                a.id = next_id++;
                a.addr = rng.below64(g1_.capacity() / 2048) * 2048;
                a.addr2 = rng.below64(g2_.capacity() / 2048) * 2048;
                a.slow = rng.below(3) == 0;
                out.push_back(a);
            }
            if (rng.below(100) < s.busyPct) {
                Action a{Action::BankBusy, t};
                a.module = rng.below(2) ? Module::M2 : Module::M1;
                a.until = t + rng.below64(3000);
                out.push_back(a);
            }
            if (rng.below(100) < s.scalePct) {
                Action a{Action::WriteScale, t};
                a.scale = 0.5 + 0.25 * rng.below(8);
                out.push_back(a);
            }
        }
        return out;
    }

    /** Drive both channels with `actions`, comparing as they go. */
    void
    run(const std::vector<Action> &actions, Tick window)
    {
        for (const Action &a : actions) {
            dutEq_.schedule(a.when, [this, a]() { applyDut(a); });
            refEq_.schedule(a.when, [this, a]() { applyRef(a); });
        }
        Tick limit = 0;
        while (!dutEq_.empty() || !refEq_.empty()) {
            limit += window;
            dutEq_.runUntil(limit);
            refEq_.runUntil(limit);
            ASSERT_NO_FATAL_FAILURE(compareLogs(limit));
            ASSERT_EQ(dut_->readQueueSize(), ref_->readQueueSize())
                << "read queue depth at tick " << limit;
            ASSERT_EQ(dut_->writeQueueSize(), ref_->writeQueueSize())
                << "write queue depth at tick " << limit;
            ASSERT_EQ(dutEq_.executed(), refEq_.executed())
                << "events executed by tick " << limit;
        }
        compareFinal();
    }

    const Log &log() const { return dutLog_; }
    const RefChannel &ref() const { return *ref_; }

  private:
    Addr
    addrIn(Module m, Rng &rng, const StreamShape &s) const
    {
        const ModuleGeometry &g = m == Module::M1 ? g1_ : g2_;
        std::uint64_t bank = rng.below(s.banksUsed);
        std::uint64_t row = rng.below(s.rowsUsed);
        std::uint64_t col = rng.below64(g.rowBytes / 64) * 64;
        return (row * g.banks + bank) * g.rowBytes + col;
    }

    void
    applyDut(const Action &a)
    {
        switch (a.kind) {
        case Action::Push: {
            auto r = std::make_unique<Request>();
            r->module = a.module;
            r->addr = a.addr;
            r->isWrite = a.write;
            r->cls = a.cls;
            Log *log = &dutLog_;
            std::uint64_t id = a.id;
            Request *req = r.get();
            r->onComplete = [log, id, req]() {
                log->push_back(Completion{false, id, req->completeTick});
            };
            dut_->push(std::move(r));
            break;
        }
        case Action::Swap: {
            Log *log = &dutLog_;
            EventQueue *eq = &dutEq_;
            std::uint64_t id = a.id;
            dut_->executeSwap(
                a.addr, a.addr2, 2048,
                [log, eq, id]() {
                    log->push_back(Completion{true, id, eq->now()});
                },
                a.slow);
            break;
        }
        case Action::BankBusy:
            dut_->injectBankBusy(a.module, a.until);
            break;
        case Action::WriteScale:
            dut_->setM2WriteScale(a.scale);
            break;
        }
    }

    void
    applyRef(const Action &a)
    {
        switch (a.kind) {
        case Action::Push:
            ref_->push(a.id, a.module, a.addr, a.write, a.cls, &refLog_);
            break;
        case Action::Swap:
            ref_->executeSwap(a.id, a.addr, a.addr2, 2048, a.slow,
                              &refLog_);
            break;
        case Action::BankBusy:
            ref_->injectBankBusy(a.module, a.until);
            break;
        case Action::WriteScale:
            ref_->setM2WriteScale(a.scale);
            break;
        }
    }

    void
    compareLogs(Tick limit)
    {
        ASSERT_EQ(dutLog_.size(), refLog_.size())
            << "completions by tick " << limit;
        for (; checked_ < dutLog_.size(); ++checked_) {
            const Completion &d = dutLog_[checked_];
            const Completion &r = refLog_[checked_];
            ASSERT_TRUE(d == r)
                << "completion #" << checked_ << ": channel "
                << (d.swap ? "swap " : "request ") << d.id << " @"
                << d.tick << ", reference " << (r.swap ? "swap " : "request ")
                << r.id << " @" << r.tick;
        }
    }

    void
    compareFinal()
    {
        // Same counter names, same values.
        std::map<std::string, std::uint64_t> dut;
        const StatSet &st = dut_->stats();
        for (std::size_t i = 0; i < st.size(); ++i)
            dut[st.name(i)] = st[i];
        EXPECT_EQ(dut, ref_->counters());
        EXPECT_EQ(dut_->readLatency().count(),
                  ref_->readLatency().count());
        EXPECT_EQ(dut_->readLatency().mean(),
                  ref_->readLatency().mean());
        EXPECT_EQ(dut_->readLatency().variance(),
                  ref_->readLatency().variance());
        const EnergyAccount &de = dut_->energy();
        const EnergyAccount &re = ref_->energy();
        EXPECT_EQ(de.m1Activates(), re.m1Activates());
        EXPECT_EQ(de.m2Activates(), re.m2Activates());
        EXPECT_EQ(de.m1ReadBursts(), re.m1ReadBursts());
        EXPECT_EQ(de.m2ReadBursts(), re.m2ReadBursts());
        EXPECT_EQ(de.m1WriteBursts(), re.m1WriteBursts());
        EXPECT_EQ(de.m2WriteBursts(), re.m2WriteBursts());
    }

    TimingParams m1_, m2_;
    ModuleGeometry g1_, g2_;
    EventQueue dutEq_, refEq_;
    std::unique_ptr<Channel> dut_;
    std::unique_ptr<RefChannel> ref_;
    Log dutLog_, refLog_;
    std::size_t checked_ = 0;
};

/** What a group of streams exercised, so each test can show that
 *  its streams reach the behaviour it is named after. */
struct Coverage
{
    std::uint64_t rowHits = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t swaps = 0;
    std::uint64_t drains = 0;

    void
    add(const RefChannel &ref)
    {
        rowHits += ref.counters().at("row_hits");
        refreshes += ref.counters().at("m1_refreshes");
        swaps += ref.counters().at("swaps");
        drains += ref.drainStarts();
    }
};

/** Runs one stream shape through a fresh lockstep pair. */
void
checkStream(const ChannelConfig &cfg, bool refresh,
            const StreamShape &shape, Coverage &cov)
{
    Lockstep ls(cfg, refresh);
    std::vector<Action> actions = ls.stream(shape);
    ASSERT_NO_FATAL_FAILURE(ls.run(actions, 997));
    std::size_t requests = 0;
    for (const Action &a : actions)
        requests += a.kind == Action::Push || a.kind == Action::Swap;
    EXPECT_EQ(ls.log().size(), requests) << "every request completes";
    cov.add(ls.ref());
}

} // anonymous namespace

TEST(ChannelReference, RowLocalReadsAndWrites)
{
    // Few banks and rows: many row hits, so the hit cap and the
    // FR-FCFS reordering decide most picks.
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        checkStream(ChannelConfig{}, false,
                    {seed, 300, 24, 400, 2, 2, 0, 0, 0}, cov);
    }
    EXPECT_GT(cov.rowHits, 1000u);
    EXPECT_EQ(cov.refreshes, 0u);
}

TEST(ChannelReference, SpreadTrafficWithRefresh)
{
    // Every bank, many rows, runs far past tREFI.
    Coverage cov;
    for (std::uint64_t seed = 11; seed <= 16; ++seed) {
        SCOPED_TRACE(seed);
        checkStream(ChannelConfig{}, true,
                    {seed, 400, 16, 900, 16, 8, 0, 0, 0}, cov);
    }
    EXPECT_GT(cov.refreshes, 100u);
}

TEST(ChannelReference, WriteDrainWatermarks)
{
    // Large bursts against low watermarks: the drain flag flips
    // both ways many times.
    ChannelConfig cfg;
    cfg.writeHighMark = 8;
    cfg.writeLowMark = 3;
    Coverage low;
    for (std::uint64_t seed = 21; seed <= 26; ++seed) {
        SCOPED_TRACE(seed);
        checkStream(cfg, true, {seed, 250, 48, 6000, 16, 3, 0, 0, 0},
                    low);
    }
    EXPECT_GT(low.drains, 100u);
    // The default 32/16 marks, crossed by bursts of up to 80.
    Coverage deflt;
    for (std::uint64_t seed = 27; seed <= 29; ++seed) {
        SCOPED_TRACE(seed);
        checkStream(ChannelConfig{}, true,
                    {seed, 150, 80, 12000, 16, 4, 0, 0, 0}, deflt);
    }
    EXPECT_GT(deflt.drains, 10u);
}

TEST(ChannelReference, SwapsAndBankBusyWindows)
{
    // Fast and slow swaps block the channel and leave rows open;
    // bank-busy windows and tWR spikes arrive mid-stream.
    Coverage cov;
    for (std::uint64_t seed = 31; seed <= 38; ++seed) {
        SCOPED_TRACE(seed);
        checkStream(ChannelConfig{}, true,
                    {seed, 300, 20, 1200, 4, 3, 30, 15, 10}, cov);
    }
    EXPECT_GT(cov.swaps, 300u);
}

TEST(ChannelReference, InflightAndCapVariants)
{
    ChannelConfig one;
    one.maxInflight = 1;
    ChannelConfig eight;
    eight.maxInflight = 8;
    eight.rowHitCap = 2;
    Coverage cov;
    for (std::uint64_t seed = 41; seed <= 44; ++seed) {
        SCOPED_TRACE(seed);
        checkStream(one, true,
                    {seed, 200, 12, 800, 3, 2, 20, 10, 5}, cov);
        checkStream(eight, true,
                    {seed + 100, 200, 30, 800, 3, 2, 20, 10, 5}, cov);
    }
    EXPECT_GT(cov.swaps, 50u);
    EXPECT_GT(cov.rowHits, 500u);
}
