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
 * Implementation: a calendar queue (bucketed timing wheel) with a
 * sorted overflow tier, replacing the original binary heap.
 *
 *  - Callbacks are `InlineCallback` (small-buffer optimized): no
 *    heap allocation for captures up to 48 bytes, which covers every
 *    callback in the simulator's steady state.
 *  - Each callback is constructed in place, from the forwarded
 *    callable, in a slot of a pooled callback slab whose addresses
 *    never change; it runs and is destroyed in that slot, so it is
 *    never relocated between schedule() and its invocation.  The
 *    wheel and the overflow tier hold only compact (when, seq, slot)
 *    keys, which is all that moves.
 *  - Events within `horizon` ticks of now go into one of `numBuckets`
 *    unsorted per-bucket vectors; scheduling is an O(1) push_back.
 *  - Events beyond the horizon go to a small binary-heap overflow
 *    tier and migrate into the wheel once now advances to within a
 *    horizon of them (periodic policy/fold events live here).
 *  - Extraction scans the current bucket for the (when, seq) minimum
 *    — buckets hold only a handful of events in practice — and the
 *    position is cached between pops, so peeks are free.
 *  - A per-bucket occupancy bitmap (one bit per bucket) lets the
 *    minimum scan jump straight to the next populated bucket with a
 *    count-trailing-zeros search instead of walking empty buckets.
 *
 * The ordering contract is exactly the old heap's: the globally
 * minimal (when, seq) pair runs next, so same-tick events preserve
 * FIFO scheduling order and results are bit-identical to the
 * binary-heap kernel (tests/test_kernel_determinism.cc).
 */

#ifndef PROFESS_COMMON_EVENT_HH
#define PROFESS_COMMON_EVENT_HH

#include <algorithm>
#include <array>
#include <cstdint>
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
        if (when - now_ < horizon) {
            std::uint32_t b = bucketOf(when);
            buckets_[b].push_back(e);
            markNonEmpty(b);
            ++wheelCount_;
        } else {
            overflow_.push_back(e);
            std::push_heap(overflow_.begin(), overflow_.end(),
                           EntryLater{});
        }
        // The cached minimum stays valid unless the new event runs
        // earlier (same-tick events have larger seq, so ties keep
        // the cache).
        if (peek_.found && when < peek_.when)
            peek_.found = false;
    }

    /** Schedule a callback delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Cycles delay, F &&cb)
    {
        schedule(now_ + delay, std::forward<F>(cb));
    }

    /** @return true if no events are pending. */
    bool
    empty() const
    {
        return wheelCount_ == 0 && overflow_.empty();
    }

    /** @return number of pending events. */
    std::size_t
    size() const
    {
        return wheelCount_ + overflow_.size();
    }

    /** @return tick of the next pending event (tickNever if none). */
    Tick
    nextTick() const
    {
        if (peek_.found)
            return peek_.when;
        Peek p = scanMin();
        return p.found ? p.when : tickNever;
    }

    /** @return total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /** @return events currently stored in the overflow tier
     *  (beyond the wheel horizon; tests and diagnostics). */
    std::size_t overflowSize() const { return overflow_.size(); }

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
        if (!peek_.found) {
            migrateOverflow();
            peek_ = scanMin();
            if (!peek_.found)
                return false;
        }
        Entry e = extract(peek_);
        peek_.found = false;
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
     * Audit the queue's structural invariants: the wheel count
     * matches the buckets, the occupancy bitmap is exact, every
     * wheel entry lies within [now, now + horizon), no entry is in
     * the past, and the overflow tier is a well-formed (when, seq)
     * min-heap.  Panics on violation.  Callable in any build; the
     * per-extraction ordering check additionally runs on every
     * runOne() in PROFESS_AUDIT builds.
     */
    void
    auditInvariants() const
    {
        std::size_t counted = 0;
        for (std::size_t b = 0; b < numBuckets; ++b) {
            bool bit = (nonEmpty_[b >> 6] &
                        (std::uint64_t(1) << (b & 63))) != 0;
            profess_audit(bit == !buckets_[b].empty(),
                          "occupancy bit of bucket %zu is %d but "
                          "bucket holds %zu events",
                          b, bit ? 1 : 0, buckets_[b].size());
            counted += buckets_[b].size();
            for (const Entry &e : buckets_[b]) {
                profess_audit(e.when >= now_,
                              "wheel event at %llu is in the past "
                              "(now %llu)",
                              static_cast<unsigned long long>(e.when),
                              static_cast<unsigned long long>(now_));
                profess_audit(e.when - now_ < horizon,
                              "wheel event at %llu beyond the "
                              "horizon (now %llu)",
                              static_cast<unsigned long long>(e.when),
                              static_cast<unsigned long long>(now_));
                profess_audit(bucketOf(e.when) == b,
                              "event at %llu filed in bucket %zu",
                              static_cast<unsigned long long>(e.when),
                              b);
            }
        }
        profess_audit(counted == wheelCount_,
                      "wheel count %zu but buckets hold %zu events",
                      wheelCount_, counted);
        profess_audit(
            std::is_heap(overflow_.begin(), overflow_.end(),
                         EntryLater{}),
            "overflow tier is not a (when, seq) min-heap");
        for (const Entry &e : overflow_) {
            profess_audit(e.when >= now_,
                          "overflow event at %llu is in the past "
                          "(now %llu)",
                          static_cast<unsigned long long>(e.when),
                          static_cast<unsigned long long>(now_));
        }
    }

    /** Run events with when <= limit. @return events executed. */
    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (true) {
            if (!peek_.found) {
                migrateOverflow();
                peek_ = scanMin();
            }
            if (!peek_.found || peek_.when > limit)
                break;
            if (runOne())
                ++n;
        }
        if (now_ < limit && empty())
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

    /** Heap comparator: true if a runs later than b. */
    struct EntryLater
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when > b.when
                                    : a.seq > b.seq;
        }
    };

    /** Location of the pending minimum. */
    struct Peek
    {
        bool found = false;
        bool fromOverflow = false;
        std::uint32_t bucket = 0;
        std::uint32_t index = 0;
        Tick when = 0;
        std::uint64_t seq = 0;
    };

    // Wheel geometry: 1024 buckets x 16 ticks = 16384-tick horizon.
    // Memory-timing events land within a few hundred ticks of now;
    // only periodic policy/statistics events overflow.
    static constexpr unsigned bucketBits = 10;
    static constexpr unsigned widthBits = 4;
    static constexpr std::size_t numBuckets = std::size_t(1)
                                              << bucketBits;
    static constexpr Tick horizon = Tick(1)
                                    << (bucketBits + widthBits);
    static constexpr std::size_t numWords = numBuckets / 64;

    static std::uint32_t
    bucketOf(Tick when)
    {
        return static_cast<std::uint32_t>((when >> widthBits) &
                                          (numBuckets - 1));
    }

    void
    markNonEmpty(std::uint32_t bucket)
    {
        nonEmpty_[bucket >> 6] |= std::uint64_t(1) << (bucket & 63);
    }

    /**
     * First populated bucket at circular offset >= 0 from `from`.
     *
     * @return bucket index, or numBuckets if the wheel is empty.
     */
    std::uint32_t
    nextNonEmpty(std::uint32_t from) const
    {
        std::uint32_t w = from >> 6;
        std::uint64_t word =
            nonEmpty_[w] & (~std::uint64_t(0) << (from & 63));
        for (std::size_t i = 0; i <= numWords; ++i) {
            if (word != 0) {
                return static_cast<std::uint32_t>(
                    (w << 6) + __builtin_ctzll(word));
            }
            w = (w + 1) & (numWords - 1);
            word = nonEmpty_[w];
        }
        return static_cast<std::uint32_t>(numBuckets);
    }

    /** Move overflow events now within the horizon into the wheel. */
    void
    migrateOverflow()
    {
        while (!overflow_.empty() &&
               overflow_.front().when - now_ < horizon) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          EntryLater{});
            Entry e = overflow_.back();
            overflow_.pop_back();
            std::uint32_t b = bucketOf(e.when);
            buckets_[b].push_back(e);
            markNonEmpty(b);
            ++wheelCount_;
        }
    }

    /**
     * Locate the globally minimal (when, seq) event.
     *
     * Scans wheel days starting at now's day; every wheel entry
     * satisfies now <= when < now + horizon, so the first day with
     * a matching entry holds the wheel minimum.  The overflow top
     * is compared against the wheel candidate, so the result is the
     * true global minimum even before migration.
     */
    /** Scan one bucket for the minimal entry of one day. */
    void
    scanBucket(std::uint32_t bucket, std::uint64_t day,
               Peek &best) const
    {
        const std::vector<Entry> &b = buckets_[bucket];
        for (std::size_t i = 0; i < b.size(); ++i) {
            const Entry &e = b[i];
            if ((e.when >> widthBits) != day)
                continue; // an entry one revolution ahead
            if (!best.found || e.when < best.when ||
                (e.when == best.when && e.seq < best.seq)) {
                best.found = true;
                best.bucket = bucket;
                best.index = static_cast<std::uint32_t>(i);
                best.when = e.when;
                best.seq = e.seq;
            }
        }
    }

    Peek
    scanMin() const
    {
        Peek best;
        if (wheelCount_ != 0) {
            // Every wheel entry satisfies now <= when < now+horizon,
            // so the first populated bucket circularly ahead of
            // now's own bucket holds the wheel minimum -- except
            // when now's bucket contains only entries one full
            // revolution ahead (day base+numBuckets), in which case
            // a second probe starting one bucket later finds it.
            std::uint32_t sb = bucketOf(now_);
            std::uint64_t base = now_ >> widthBits;
            std::uint32_t b1 = nextNonEmpty(sb);
            if (b1 != numBuckets) {
                scanBucket(b1, base + ((b1 - sb) & (numBuckets - 1)),
                           best);
                if (!best.found) {
                    // Only possible for b1 == sb: its entries belong
                    // to the next revolution of the wheel.
                    std::uint32_t b2 =
                        nextNonEmpty((b1 + 1) & (numBuckets - 1));
                    if (b2 != numBuckets) {
                        std::uint64_t off =
                            1 + ((b2 - sb - 1) & (numBuckets - 1));
                        scanBucket(b2, base + off, best);
                    }
                }
            }
            panic_if(!best.found,
                     "calendar wheel lost %llu events",
                     static_cast<unsigned long long>(wheelCount_));
        }
        if (!overflow_.empty()) {
            const Entry &t = overflow_.front();
            if (!best.found || t.when < best.when ||
                (t.when == best.when && t.seq < best.seq)) {
                best.found = true;
                best.fromOverflow = true;
                best.when = t.when;
                best.seq = t.seq;
            }
        }
        return best;
    }

    /** Remove and return the event at a peeked location. */
    Entry
    extract(const Peek &p)
    {
        if (p.fromOverflow) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          EntryLater{});
            Entry e = overflow_.back();
            overflow_.pop_back();
            return e;
        }
        std::vector<Entry> &b = buckets_[p.bucket];
        Entry e = b[p.index];
        b[p.index] = b.back();
        b.pop_back();
        if (b.empty()) {
            nonEmpty_[p.bucket >> 6] &=
                ~(std::uint64_t(1) << (p.bucket & 63));
        }
        --wheelCount_;
        return e;
    }

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

    std::vector<std::vector<Entry>> buckets_{numBuckets};
    /** One occupancy bit per bucket (see nextNonEmpty). */
    std::array<std::uint64_t, numWords> nonEmpty_{};
    std::vector<Entry> overflow_; ///< min-heap by (when, seq)
    /** Stable home of every pending callback (recycled slots). */
    ObjectPool<Callback> slab_;
    std::size_t wheelCount_ = 0;
    Peek peek_;
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
