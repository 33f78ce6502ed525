/**
 * @file
 * Allocation-recycling object pool for hot-path node types.
 *
 * The simulation kernel creates and destroys one `mem::Request` and
 * one `PendingAccess` per simulated access.  `ObjectPool` keeps the
 * freed nodes on a free list so the steady state performs zero heap
 * allocations: `acquire()` pops a recycled node (or grows a slab),
 * `release()` pushes it back.
 *
 * Nodes live in `std::deque` slabs, so pointers stay stable for the
 * pool's lifetime — holders may keep raw pointers across an
 * acquire/release cycle boundary (but must not use a node after
 * releasing it, as usual).
 *
 * The pool does not run constructors/destructors per cycle; nodes
 * are default-constructed once when their slab grows and reused
 * as-is.  Callers reset the fields they use (all hot-path nodes are
 * simple aggregates).
 */

#ifndef PROFESS_COMMON_POOL_HH
#define PROFESS_COMMON_POOL_HH

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

namespace profess
{

template <typename T>
class ObjectPool
{
  public:
    /** @return a recycled or freshly slab-allocated node. */
    T *
    acquire()
    {
        if (free_.empty()) {
            slab_.emplace_back();
            return &slab_.back();
        }
        T *p = free_.back();
        free_.pop_back();
        return p;
    }

    /** Return a node obtained from acquire() to the free list. */
    void
    release(T *p)
    {
        free_.push_back(p);
    }

    /** @return total nodes ever created (high-water mark). */
    std::size_t capacity() const { return slab_.size(); }

    /** @return nodes currently on the free list. */
    std::size_t available() const { return free_.size(); }

    /**
     * @return the nodes acquired and not yet released, sorted by
     * std::less<> on their addresses.  O(n log n) in the capacity;
     * for audits, not the hot path.
     */
    std::vector<const T *>
    checkedOut() const
    {
        std::vector<const T *> freed(free_.begin(), free_.end());
        std::sort(freed.begin(), freed.end(), std::less<>{});
        std::vector<const T *> out;
        for (const T &node : slab_) {
            if (!std::binary_search(freed.begin(), freed.end(), &node,
                                    std::less<>{}))
                out.push_back(&node);
        }
        std::sort(out.begin(), out.end(), std::less<>{});
        return out;
    }

  private:
    std::deque<T> slab_;
    std::vector<T *> free_;
};

} // namespace profess

#endif // PROFESS_COMMON_POOL_HH
