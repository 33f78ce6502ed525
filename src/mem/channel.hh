/**
 * @file
 * Event-driven timing model of one hybrid memory channel.
 *
 * One channel hosts one M1 (DRAM) module and one M2 (NVM) module
 * sharing command and data buses, as in Intel Purley (Sec. 2.2).
 * Scheduling is FR-FCFS-Cap (Sec. 4.1): row-buffer hits are preferred
 * but at most `rowHitCap` consecutive hits to one row are served
 * before the oldest request wins; writes are buffered and drained
 * between high/low watermarks; banks across both modules operate in
 * parallel, arbitrating for the shared data bus.
 *
 * Swaps (block migrations) are modelled per Sec. 4.1: the channel is
 * blocked for the duration of the swap, whose latency is derived from
 * the timing parameters using the paper's overlap structure (read
 * phase dominated by tRCD_M2, write phase dominated by tWR_M2); the
 * resulting ~796 ns for default parameters is validated by tests.
 *
 * Scheduler data layout: queue entries carry their FR-FCFS key
 * inline (row and a flat bank index, M1 banks first, then M2), and a
 * flat per-bank "hit row" table holds, for every bank, the row a
 * request must target to be a cap-eligible row hit (or noHitRow).
 * A scheduling pass therefore compares one key per queued request
 * without touching the request itself.  tests/test_channel_reference.cc
 * checks the channel in lockstep against a naive model.
 */

#ifndef PROFESS_MEM_CHANNEL_HH
#define PROFESS_MEM_CHANNEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/event.hh"
#include "common/fifo.hh"
#include "common/inline_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/energy.hh"
#include "mem/geometry.hh"
#include "mem/request.hh"
#include "mem/timing.hh"

namespace profess
{

namespace telemetry
{
class LatencyAttribution;
class StatRegistry;
struct TimerSlot;
} // namespace telemetry

namespace mem
{

/** Scheduling and buffering knobs of a channel. */
struct ChannelConfig
{
    unsigned rowHitCap = 4;     ///< FR-FCFS-Cap limit
    unsigned writeHighMark = 32; ///< start draining writes
    unsigned writeLowMark = 16;  ///< stop draining writes
    unsigned maxInflight = 4;    ///< concurrently committed requests
};

/** One memory channel with an M1 and an M2 module. */
class Channel
{
  public:
    /**
     * @param eq Shared event queue.
     * @param m1t M1 timing parameters.
     * @param m2t M2 timing parameters.
     * @param m1g M1 geometry.
     * @param m2g M2 geometry.
     * @param ep Energy parameters.
     * @param cfg Scheduling configuration.
     */
    Channel(EventQueue &eq, const TimingParams &m1t,
            const TimingParams &m2t, const ModuleGeometry &m1g,
            const ModuleGeometry &m2g, const EnergyParams &ep = {},
            const ChannelConfig &cfg = {});

    /** Frees (or recycles) any still-queued requests. */
    ~Channel() { dropQueued(); }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Enqueue a request; completion reported via req->onComplete. */
    void push(RequestPtr req);

    /** Convenience overload for plain heap-allocated requests
     *  (tests and microbenchmarks); ownership transfers as above. */
    void
    push(std::unique_ptr<Request> req)
    {
        push(RequestPtr(req.release()));
    }

    /**
     * Execute a block swap between an M1 location and an M2 location.
     *
     * The channel is blocked for the duration (fast swap, Sec. 2.3);
     * queued demand requests wait.  Multiple swap requests queue.
     *
     * @param m1_addr M1 device byte address of the 2-KB block.
     * @param m2_addr M2 device byte address of the 2-KB block.
     * @param block_bytes Swap block size in bytes.
     * @param done Invoked when the swap completes.
     * @param slow Slow swap (Table 1): the original mapping must be
     *        restored first, doubling the occupancy.
     */
    void executeSwap(Addr m1_addr, Addr m2_addr,
                     std::uint64_t block_bytes,
                     InlineCallback done,
                     bool slow = false);

    /** @return true while a swap occupies the channel. */
    bool swapActive() const { return eq_.now() < swapEndTick_; }

    /** @return analytic latency of one swap, in MC cycles. */
    Cycles swapLatency(std::uint64_t block_bytes) const;

    /** @return number of queued read requests. */
    std::size_t readQueueSize() const { return readQ_.size(); }

    /** @return number of queued write requests. */
    std::size_t writeQueueSize() const { return writeQ_.size(); }

    /** Statistics of this channel. */
    const StatSet &stats() const { return stats_; }

    /** Register all channel statistics plus live queue-depth probes
     *  under `prefix` ("mem.ch0"). */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

    /** Wall-clock profile the scheduler hot path (null disables). */
    void setSchedulerTimer(telemetry::TimerSlot *slot)
    {
        schedTimer_ = slot;
    }

    /**
     * Attribute demand-request lifecycle phases (queue, bank-busy,
     * transfer) per program and tier (null disables; observational
     * only — one PROFESS_UNLIKELY branch per committed request).
     */
    void setLatencyAttribution(telemetry::LatencyAttribution *attr)
    {
        attr_ = attr;
    }

    /** Demand-read latency distribution (MC cycles). */
    const RunningStat &readLatency() const { return readLat_; }

    /** Energy account of this channel. */
    const EnergyAccount &energy() const { return energy_; }

    /** M1/M2 timing in force (read-only). */
    const TimingParams &m1Timing() const { return m1t_; }
    const TimingParams &m2Timing() const { return m2t_; }

    /**
     * Scale the M2 write-recovery time (tWR) relative to its
     * construction-time value (fault injection: transient PCM
     * write-latency spikes).  1.0 restores the baseline; the result
     * is clamped to at least one cycle.  Takes effect for
     * subsequently committed requests and swaps.
     */
    void setM2WriteScale(double scale);

    /**
     * Hold every bank of a module busy until `until` (fault
     * injection: a bank-busy window).  In-flight requests complete;
     * new activations and column commands wait out the window.
     */
    void injectBankBusy(Module m, Tick until);

    /**
     * Zero all statistics and energy tallies (device and queue
     * state are untouched).  Used to exclude warm-up from
     * measurement windows.
     */
    void resetStats();

    /**
     * Drop all queued (not yet committed) requests and swaps
     * without executing them.  Called by request producers on
     * teardown so pooled requests return to their pool while it is
     * still alive; the channel itself stays usable.
     */
    void
    dropQueued()
    {
        for (auto *q : {&readQ_, &writeQ_}) {
            for (const QueueEntry &e : *q)
                RequestDeleter{}(e.req);
            q->clear();
        }
        swapQ_.clear();
        activeSwapDones_.clear();
    }

  private:
    /** Indices into stats_, parallel to statNames. */
    enum Stat : unsigned
    {
        DemandReads,
        DemandWrites,
        StReads,
        StWrites,
        RowHits,
        RowMisses,
        M1Activates,
        M2Activates,
        M1Accesses,
        M2Accesses,
        BusBusyCycles,
        M1Refreshes,
        Swaps,
        SwapBusyCycles,
        NumStats
    };
    static constexpr const char *statNames[NumStats] = {
        "demand_reads", "demand_writes", "st_reads",
        "st_writes", "row_hits", "row_misses",
        "m1_activates", "m2_activates", "m1_accesses",
        "m2_accesses", "bus_busy_cycles", "m1_refreshes",
        "swaps", "swap_busy_cycles"};

    /** Per-bank device state. */
    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick readyCol = 0;      ///< earliest next column command
        Tick readyAct = 0;      ///< earliest next activation
        Tick lastAct = 0;       ///< last activation tick (tRAS/tRC)
        Tick wrRecoverEnd = 0;  ///< write recovery for precharge
        unsigned consecHits = 0;
    };

    /** A queued request with its FR-FCFS key inline.  The queue
     *  owns `req` (released from its RequestPtr on push). */
    struct QueueEntry
    {
        Request *req;
        std::uint32_t bank; ///< flat: M1 banks, then M2 banks
        std::uint32_t row;
    };

    /** hitRow_ value of a bank that cannot serve a row hit. */
    static constexpr std::uint32_t noHitRow = ~std::uint32_t{0};

    /** A queued swap awaiting the channel. */
    struct PendingSwap
    {
        Addr m1Addr;
        Addr m2Addr;
        std::uint64_t blockBytes;
        InlineCallback done;
        bool slow;
    };

    const TimingParams &timing(Module m) const
    {
        return m == Module::M1 ? m1t_ : m2t_;
    }
    const ModuleGeometry &geometry(Module m) const
    {
        return m == Module::M1 ? m1g_ : m2g_;
    }

    /** Refresh the hit-row entry of a flat bank after its open
     *  row, open flag or hit count changed. */
    void
    updateHitRow(std::uint32_t flat)
    {
        const Bank &b = banks_[flat];
        hitRow_[flat] = b.open && b.consecHits < cfg_.rowHitCap
                            ? static_cast<std::uint32_t>(b.row)
                            : noHitRow;
    }

    /** Apply any M1 refresh windows that have begun by now. */
    void applyRefresh(Tick now);

    /** Ensure a scheduler wake-up at the given tick. */
    void requestWake(Tick when);

    /** Main scheduling entry: commit as many requests as allowed. */
    void trySchedule();

    /**
     * Pick the next request index in q per FR-FCFS-Cap: the oldest
     * row hit whose row is below the consecutive-hit cap, else 0
     * (the oldest request).  q must not be empty.
     */
    std::size_t pickNext(const std::vector<QueueEntry> &q) const;

    /** Commit one request: update state, schedule completion. */
    void commit(const QueueEntry &e);

    /** Start the next queued swap if the channel is free. */
    void maybeStartSwap();

    EventQueue &eq_;
    TimingParams m1t_, m2t_;
    ModuleGeometry m1g_, m2g_;
    ChannelConfig cfg_;
    Cycles m2BaseTwr_; ///< construction-time tWR_M2 (spike baseline)

    std::uint32_t m1Banks_;             ///< flat index of first M2 bank
    std::vector<Bank> banks_;           ///< flat, M1 then M2
    std::vector<std::uint32_t> hitRow_; ///< per flat bank
    std::vector<QueueEntry> readQ_, writeQ_;
    Fifo<PendingSwap> swapQ_;

    Tick busFreeAt_ = 0;
    bool lastBusWrite_ = false;
    bool drainingWrites_ = false;
    unsigned inflight_ = 0;
    Tick swapEndTick_ = 0;
    Tick nextRefresh_ = 0;
    Tick wakeAt_ = tickNever;

    /** Completion callbacks of started swaps, FIFO.  Swaps finish
     *  in start order (ends strictly increase), so the completion
     *  event captures only `this` and pops the front.  Usually one
     *  entry; two when a successor starts at the same tick an older
     *  event fires. */
    Fifo<InlineCallback> activeSwapDones_;

    StatSet stats_{statNames};
    RunningStat readLat_;
    EnergyAccount energy_;
    telemetry::TimerSlot *schedTimer_ = nullptr;
    telemetry::LatencyAttribution *attr_ = nullptr;
};

} // namespace mem

} // namespace profess

#endif // PROFESS_MEM_CHANNEL_HH
