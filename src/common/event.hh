/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global event queue drives the whole simulation.  All
 * components share one clock domain: the memory-controller clock
 * (0.8 GHz by default, Table 8); faster components (cores) convert
 * their own cycles into MC ticks.
 *
 * Events are arbitrary callables.  Two events scheduled for the same
 * tick execute in scheduling order (a monotone sequence number breaks
 * ties), which keeps simulations deterministic.
 *
 * Implementation: one array of pending (when, seq, slot) keys kept
 * sorted by (when, seq) in descending order, so the next event is
 * always at the back.
 *
 *  - The queue is small.  Counted at every runOne() across the
 *    perfbench workloads, it holds a mean of 4.9 to 8.4 pending
 *    events, with a p99 of 12 and a max of 16: a few memory-timing
 *    events tens to hundreds of ticks ahead, plus the far periodic
 *    policy and statistics events.  At that size one contiguous
 *    array beats any bucketed or heap structure.
 *  - schedule() walks from the back over the events that run
 *    earlier and inserts behind them.  A new event has the largest
 *    seq so far, so it goes before every event of its own tick.
 *    runOne() pops the back.  No delay is too far: there are no
 *    buckets, no horizon and no migration.
 *  - The array's capacity is reserved at construction, so
 *    steady-state scheduling never allocates.
 *  - Callbacks are `InlineCallback` (small-buffer optimized): no
 *    heap allocation for captures up to 48 bytes, which covers every
 *    callback in the simulator's steady state.
 *  - Each callback is constructed in place, from the forwarded
 *    callable, in a slot of a pooled callback slab whose addresses
 *    never change; it runs and is destroyed in that slot, so it is
 *    never relocated between schedule() and its invocation.  The
 *    array holds only the compact keys, which is all that moves.
 *
 * The ordering contract is exactly the original binary heap's: the
 * globally minimal (when, seq) pair runs next, so same-tick events
 * preserve FIFO scheduling order and results are bit-identical
 * (tests/test_kernel_determinism.cc, tests/test_event_reference.cc).
 */

#ifndef PROFESS_COMMON_EVENT_HH
#define PROFESS_COMMON_EVENT_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/inline_function.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/pool.hh"
#include "common/types.hh"

#if PROFESS_DETSAN
#include "common/detsan.hh"
#endif

namespace profess
{

/** Central time-ordered queue of callbacks. */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() { entries_.reserve(reservedEvents); }

    /** @return current simulation time in ticks. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * The callable is forwarded and the Callback constructed in
     * place in its slab slot (see the file comment).
     *
     * @param when Absolute tick, must be >= now().
     * @param cb Callable to run (a lambda, or a Callback rvalue).
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        panic_if(when < now_, "scheduling event in the past "
                 "(when=%llu now=%llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
        Callback *slot = slab_.acquire();
        *slot = std::forward<F>(cb);
        Entry e{when, seq_++, slot};
        // Shift every event that runs no later than `when` one place
        // up; the new seq is the largest, so it sorts before them.
        entries_.push_back(e);
        std::size_t i = entries_.size() - 1;
        while (i > 0 && entries_[i - 1].when <= when) {
            entries_[i] = entries_[i - 1];
            --i;
        }
        entries_[i] = e;
    }

    /** Schedule a callback delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Cycles delay, F &&cb)
    {
        schedule(now_ + delay, std::forward<F>(cb));
    }

    /** @return true if no events are pending. */
    bool empty() const { return entries_.empty(); }

    /** @return number of pending events. */
    std::size_t size() const { return entries_.size(); }

    /** @return tick of the next pending event (tickNever if none). */
    Tick
    nextTick() const
    {
        return entries_.empty() ? tickNever : entries_.back().when;
    }

    /** @return total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

#if PROFESS_DETSAN
    /** @return chained FNV-1a over every extraction's (when, seq)
     *  pair — identical digests mean identical event order. */
    std::uint64_t detsanDigest() const { return detsan_.value(); }
#endif

    /**
     * Pop and execute the next event, advancing time.
     *
     * @return false when the queue was empty.
     */
    bool
    runOne()
    {
        if (entries_.empty())
            return false;
        Entry e = entries_.back();
        entries_.pop_back();
        PROFESS_AUDIT_ONLY(auditExtraction(e.when, e.seq));
#if PROFESS_DETSAN
        // Fingerprint the extraction order the (when, seq)
        // contract promises; see common/detsan.hh.
        detsan_.mix(e.when);
        detsan_.mix(e.seq);
#endif
        now_ = e.when;
        ++executed_;
        // The slot stays checked out while the callback runs, so
        // events it schedules never land in it.
        (*e.cb)();
        e.cb->reset();
        slab_.release(e.cb);
        return true;
    }

    /** Run events until the queue drains. @return events executed. */
    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (runOne())
            ++n;
        return n;
    }

    /**
     * Run events until the queue drains or a stop predicate holds.
     *
     * The predicate is a template parameter so the per-event check
     * inlines instead of going through a type-erased call.
     *
     * @param stop Callable checked after each event.
     * @return Number of events executed.
     */
    template <typename Stop>
    std::uint64_t
    run(Stop &&stop)
    {
        std::uint64_t n = 0;
        while (runOne()) {
            ++n;
            if (stop())
                break;
        }
        return n;
    }

    /**
     * Audit the queue's structural invariants: the array is strictly
     * descending by (when, seq), no entry is before now(), and every
     * entry's callback slot is distinct and checked out of the slab.
     * Panics on violation.  Callable in any build; the per-extraction
     * ordering check additionally runs on every runOne() in
     * PROFESS_AUDIT builds.
     */
    void
    auditInvariants() const
    {
        std::vector<const Callback *> out = slab_.checkedOut();
        // Also the one check an empty queue gets.
        profess_audit(entries_.size() <= out.size(),
                      "%zu pending events but only %zu slab slots "
                      "checked out", entries_.size(), out.size());
        std::vector<const Callback *> slots;
        slots.reserve(entries_.size());
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            if (i > 0) {
                const Entry &p = entries_[i - 1];
                profess_audit(p.when > e.when ||
                                  (p.when == e.when && p.seq > e.seq),
                              "pending events out of order: "
                              "(%llu, %llu) before (%llu, %llu)",
                              static_cast<unsigned long long>(p.when),
                              static_cast<unsigned long long>(p.seq),
                              static_cast<unsigned long long>(e.when),
                              static_cast<unsigned long long>(e.seq));
            }
            profess_audit(e.when >= now_,
                          "pending event at %llu is in the past "
                          "(now %llu)",
                          static_cast<unsigned long long>(e.when),
                          static_cast<unsigned long long>(now_));
            profess_audit(std::binary_search(out.begin(), out.end(),
                                             e.cb, std::less<>{}),
                          "event (%llu, %llu) holds a slot that is "
                          "not checked out of the slab",
                          static_cast<unsigned long long>(e.when),
                          static_cast<unsigned long long>(e.seq));
            slots.push_back(e.cb);
        }
        std::sort(slots.begin(), slots.end(), std::less<>{});
        profess_audit(std::adjacent_find(slots.begin(), slots.end()) ==
                          slots.end(),
                      "two pending events share one callback slot");
    }

    /** Run events with when <= limit. @return events executed. */
    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (!entries_.empty() && entries_.back().when <= limit) {
            runOne();
            ++n;
        }
        if (now_ < limit && entries_.empty())
            now_ = limit;
        return n;
    }

  private:
    /** Ordering key of one pending event; the callback stays put in
     *  its slab slot. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback *cb;
    };

    /** Capacity reserved up front: four times the largest pending
     *  population measured on the perfbench workloads (16). */
    static constexpr std::size_t reservedEvents = 64;

    /**
     * Audit one extraction against the (when, seq) ordering
     * contract: strictly increasing seq within a tick, never a tick
     * before the previous extraction.  Only called (and the last-
     * extraction state only updated) in PROFESS_AUDIT builds.
     */
    void
    auditExtraction(Tick when, std::uint64_t seq)
    {
        profess_audit(!hasExtracted_ || when > lastWhen_ ||
                          (when == lastWhen_ && seq > lastSeq_),
                      "(when, seq) ordering violated: (%llu, %llu) "
                      "after (%llu, %llu)",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(lastWhen_),
                      static_cast<unsigned long long>(lastSeq_));
        hasExtracted_ = true;
        lastWhen_ = when;
        lastSeq_ = seq;
    }

    /** Pending events, sorted descending by (when, seq): the next
     *  one to run is at the back. */
    std::vector<Entry> entries_;
    /** Stable home of every pending callback (recycled slots). */
    ObjectPool<Callback> slab_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    // Ordering-audit state; written only in PROFESS_AUDIT builds.
    Tick lastWhen_ = 0;
    std::uint64_t lastSeq_ = 0;
    bool hasExtracted_ = false;
#if PROFESS_DETSAN
    detsan::Digest detsan_; ///< extraction-order fingerprint
#endif
};

} // namespace profess

#endif // PROFESS_COMMON_EVENT_HH
