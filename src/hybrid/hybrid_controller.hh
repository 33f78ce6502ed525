/**
 * @file
 * The hardware memory controller managing the flat migrating hybrid
 * memory (Fig. 1), transparently to the OS (Sec. 2.2).
 *
 * For every demand access it:
 *   1. translates the original address through the STC (a miss fills
 *      the ST entry from M1 and may write back a dirty victim);
 *   2. serves the 64-B request from the block's actual location;
 *   3. bumps the block's STC access counter and notifies the
 *      migration policy, which may decide to swap the accessed M2
 *      block with the group's M1-resident block;
 *   4. executes decided swaps through the channel (which is blocked
 *      for the swap duration; accesses to a group mid-swap wait).
 *
 * The controller is policy-agnostic: PoM, MemPod, MDM, ProFess, etc.
 * plug in through policy::MigrationPolicy.
 *
 * Hot-path organization: the per-access path performs zero heap
 * allocations in the steady state.  PendingAccess nodes and channel
 * requests are recycled through ObjectPools; accesses waiting on a
 * fill or swap sit on intrusive per-group FIFO lists inside a flat
 * GroupInfo table, which also caches every layout_-derived value
 * (region, channel, private bit, device base addresses) so the
 * address math is shifts, masks and one multiply-shift division.
 */

#ifndef PROFESS_HYBRID_HYBRID_CONTROLLER_HH
#define PROFESS_HYBRID_HYBRID_CONTROLLER_HH

#include <string>
#include <vector>

#include "common/event.hh"
#include "common/fastdiv.hh"
#include "common/inline_function.hh"
#include "common/pool.hh"
#include "common/stats.hh"
#include "hybrid/layout.hh"
#include "hybrid/st.hh"
#include "hybrid/stc.hh"
#include "mem/memory_system.hh"
#include "os/page_allocator.hh"
#include "policy/policy.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
class ChromeTraceSink;
class LatencyAttribution;
struct TimerSlot;
} // namespace telemetry

namespace hybrid
{

/**
 * Fault-injection hook for deterministic failure testing
 * (sim::ScenarioController).  When installed, the controller
 * consults it at every swap completion: an aborted swap never
 * commits (the ATB/QAC state simply stays pre-swap), waiting
 * accesses are served from the unchanged locations, and the swap is
 * re-armed with exponential backoff up to swapMaxRetries(), after
 * which it degrades gracefully (the group stays consistent and
 * serviceable, the swap is dropped).  Absent an injector the only
 * cost is one predicted-not-taken null check per swap completion.
 */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;

    /** @return true to abort the swap completing on `group` now. */
    virtual bool swapAborts(std::uint64_t group, Tick now) = 0;

    /** @return retry bound for aborted swaps. */
    virtual unsigned swapMaxRetries() const = 0;

    /** @return base retry backoff (doubled per attempt). */
    virtual Cycles swapRetryBackoff() const = 0;

    /** An aborted swap was re-armed. */
    virtual void noteSwapRetry(std::uint64_t group, Tick now) = 0;

    /** An aborted swap exhausted its retries and was dropped. */
    virtual void noteSwapDegraded(std::uint64_t group, Tick now) = 0;
};

/** Memory controller for the hybrid memory. */
class HybridController : public policy::SwapHost
{
  public:
    struct Params
    {
        StCache::Params stc{};
        bool modelStTraffic = true; ///< STC misses touch M1
        unsigned numPrograms = 4;   ///< private regions 0..n-1
        /**
         * Fold the access counters of long-resident STC entries
         * into the policy statistics every this many ticks
         * (0 = off).  Implements the paper's Sec. 5.2 observation
         * that a lack of evictions starves MDM of updates ("forcing
         * MDM counters' updates every 10M processor cycles ...
         * would increase the IPC"); 10M core cycles scale to 25K
         * MC ticks at the repo's 1/100 run scale.
         */
        Cycles statsFoldInterval = 25000;
    };

    /** Per-program service counters. */
    struct ProgramStats
    {
        std::uint64_t served = 0;
        std::uint64_t servedFromM1 = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };

    HybridController(EventQueue &eq, mem::MemorySystem &memory,
                     const HybridLayout &layout, const Params &params,
                     policy::MigrationPolicy &policy,
                     const os::BlockOwnerOracle &oracle);

    /**
     * Drops any requests still queued in the channels: they were
     * acquired from this controller's pool, and the controller (a
     * channel user, constructed after the memory system) is always
     * destroyed first, so they must be recycled while the pool is
     * alive.
     */
    ~HybridController() override;

    /**
     * Serve one 64-B demand access.
     *
     * `done` is taken by rvalue reference and moved exactly twice
     * before it runs: into the pending access, then into the channel
     * request, where the channel invokes it in place.
     *
     * @param program Accessing program.
     * @param original_addr Original physical byte address.
     * @param is_write True for writes.
     * @param done Completion callback (may be empty for writes).
     */
    void access(ProgramId program, Addr original_addr, bool is_write,
                InlineCallback &&done);

    /** Begin periodic policy callbacks (MemPod intervals). */
    void startPeriodic();

    /** Stop periodic policy callbacks. */
    void stopPeriodic();

    // SwapHost
    bool requestSwap(std::uint64_t group, unsigned slot) override;
    Tick hostNow() const override { return eq_.now(); }

    /** @return STC hit rate over all demand translations. */
    double stcHitRate() const { return stc_.hitRate(); }

    /** @return total swaps executed. */
    std::uint64_t swapCount() const { return swaps_; }

    /** @return served demand accesses (all programs). */
    std::uint64_t servedTotal() const;

    /** @return per-program counters. */
    const ProgramStats &programStats(ProgramId p) const;

    /** @return misc counters (st_fills, st_writebacks, ...). */
    const StatSet &stats() const { return stats_; }

    /** @return the layout in force. */
    const HybridLayout &layout() const { return layout_; }

    /** @return the swap-group table (tests, debugging). */
    const SwapGroupTable &table() const { return st_; }

    /** @return the STC (tests, debugging). */
    const StCache &stCache() const { return stc_; }

    /**
     * Zero all service statistics (per-program counters, swap
     * count, STC hit/miss, misc counters); ST/STC contents and
     * policy state are untouched.  Used at the warm-up boundary.
     */
    void resetStats();

    /** Register controller + STC + per-program statistics under
     *  `prefix` ("hybrid"); forwards to the migration policy. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix);

    /**
     * Full structural audit: every swap group's ATB permutation and
     * QAC range, ST/STC residency coherence across all sets, and
     * the migration policy's internal invariants.  Panics on
     * violation.  Wired into System teardown in PROFESS_AUDIT
     * builds; callable from tests in any build.
     */
    void
    auditInvariants() const
    {
        st_.auditInvariants();
        stc_.auditInvariants(st_);
        policy_.auditInvariants();
    }

    /** Emit swap/fill spans to a Chrome trace (null disables). */
    void setChromeTrace(telemetry::ChromeTraceSink *sink)
    {
        chrome_ = sink;
    }

    /** Wall-clock profile the access path (null disables). */
    void setAccessTimer(telemetry::TimerSlot *slot)
    {
        accessTimer_ = slot;
    }

    /**
     * Attribute time accesses spend parked behind STC fills and
     * in-flight swaps (null disables; observational only — parked
     * timestamps are pool-resident and only written under a
     * PROFESS_UNLIKELY branch).
     */
    void setLatencyAttribution(telemetry::LatencyAttribution *attr)
    {
        attr_ = attr;
    }

    /** Install a fault-injection hook (null disables). */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /**
     * @return true when no translation fill or swap is in flight on
     *         any group — the quiesce condition under which
     *         cross-component audits (auditStcQacCoherence) are
     *         guaranteed to hold.
     */
    bool quiescent() const;

    /**
     * Audit that every cached, non-swapping group's STC q_I
     * snapshots agree with the owning ST entry's live QACs (valid
     * exactly at quiesce points: QACs only change through eviction
     * updates, which re-sync the snapshots).  Panics on violation.
     */
    void auditStcQacCoherence() const;

  private:
    /** Indices into stats_, parallel to statNames. */
    enum Stat : unsigned
    {
        StFills,
        StcInsertRetries,
        StcEvictions,
        StWritebacks,
        SwapAborts,
        SwapDegraded,
        SwapRetries,
        SwapRetryDropped,
        StatsFolds,
        NumStats
    };
    static constexpr const char *statNames[NumStats] = {
        "st_fills", "stc_insert_retries", "stc_evictions",
        "st_writebacks", "swap_aborts", "swap_degraded",
        "swap_retries", "swap_retry_dropped", "stats_folds"};

    /** One access waiting for translation or a swap (pooled). */
    struct PendingAccess
    {
        ProgramId program;
        unsigned slot;
        std::uint64_t offset; ///< byte offset within the block
        bool isWrite;
        InlineCallback done;
        PendingAccess *next = nullptr; ///< intrusive FIFO link
        /** First tick this access parked on a wait list
         *  (tickNever = not parked).  Only maintained while
         *  latency attribution is attached. */
        Tick parkTick = tickNever;
        bool parkedOnSwap = false; ///< parked behind a swap
    };

    /** Intrusive FIFO of pooled PendingAccess nodes. */
    struct WaitList
    {
        PendingAccess *head = nullptr;
        PendingAccess *tail = nullptr;

        bool empty() const { return head == nullptr; }

        void
        append(PendingAccess *pa)
        {
            pa->next = nullptr;
            if (tail != nullptr)
                tail->next = pa;
            else
                head = pa;
            tail = pa;
        }

        /** Detach and return the whole chain. */
        PendingAccess *
        take()
        {
            PendingAccess *h = head;
            head = tail = nullptr;
            return h;
        }
    };

    /**
     * Per-group hot-path state: every layout_-derived value the
     * access path needs, precomputed, plus the group's wait lists.
     * (The M2 device address of location L is m1Addr + L *
     * m2Stride_, so only the M1 base is stored per group.)
     */
    struct GroupInfo
    {
        Addr m1Addr = 0;          ///< layout_.m1BlockAddr(group)
        Addr stAddr = 0;          ///< layout_.stEntryAddr(group)
        mem::Channel *chan = nullptr;
        std::uint16_t region = 0; ///< layout_.regionOfGroup(group)
        bool isPrivate = false;   ///< region < numPrograms
        bool fillInFlight = false;
        WaitList fillWaiters;
        WaitList swapWaiters;
    };

    void serve(std::uint64_t group, StcMeta &meta, PendingAccess *pa);
    void startFill(std::uint64_t group, PendingAccess *pa);
    void finishFill(std::uint64_t group);
    // Aborted swaps thread `attempt` and the tick of their first
    // abort through the retry chain so the retry-latency histogram
    // can measure first-abort to final-outcome time.
    void startSwap(std::uint64_t group, unsigned promote_slot,
                   unsigned m1_slot, StcMeta &meta,
                   unsigned attempt = 0, Tick first_abort = 0);
    void swapDone(std::uint64_t group, unsigned promote_slot,
                  unsigned m1_slot, unsigned attempt,
                  Tick first_abort);
    void finishSwap(std::uint64_t group, unsigned promote_slot,
                    unsigned m1_slot);
    void abortSwap(std::uint64_t group, unsigned promote_slot,
                   unsigned m1_slot, unsigned attempt,
                   Tick first_abort);
    void retrySwap(std::uint64_t group, unsigned promote_slot,
                   unsigned attempt, Tick first_abort);
    void schedulePeriodic();
    void scheduleStatsFold();
    void foldLongResidents();

    bool
    privateRegion(std::uint64_t group) const
    {
        return groups_[group].isPrivate;
    }

    mem::Channel &
    channelOf(std::uint64_t group)
    {
        return *groups_[group].chan;
    }

    EventQueue &eq_;
    mem::MemorySystem &memory_;
    HybridLayout layout_;
    Params params_;
    policy::MigrationPolicy &policy_;
    const os::BlockOwnerOracle &oracle_;

    SwapGroupTable st_;
    StCache stc_;

    std::vector<GroupInfo> groups_;
    ObjectPool<PendingAccess> paPool_;
    ObjectPool<mem::Request> reqPool_;

    // Precomputed address math (see GroupInfo).
    FastDivMod groupDiv_;          ///< divides by numGroups
    unsigned blockShift_ = 0;      ///< log2(blockBytes)
    std::uint64_t offsetMask_ = 0; ///< blockBytes - 1
    Addr m2Stride_ = 0; ///< m2BlockAddr(g, L) - m1BlockAddr(g) per L

    std::vector<ProgramStats> perProgram_;
    std::uint64_t swaps_ = 0;
    bool periodicEnabled_ = false;
    bool foldEnabled_ = false;
    StatSet stats_{statNames};
    /** First-abort to final-outcome time of retried swaps (MC
     *  cycles); fed only on the abort path, surfaced through the
     *  registry as hybrid.swap_retry_latency. */
    Histogram swapRetryLat_;
    telemetry::ChromeTraceSink *chrome_ = nullptr;
    telemetry::TimerSlot *accessTimer_ = nullptr;
    telemetry::LatencyAttribution *attr_ = nullptr;
    FaultInjector *faults_ = nullptr;
};

} // namespace hybrid

} // namespace profess

#endif // PROFESS_HYBRID_HYBRID_CONTROLLER_HH
