/**
 * @file
 * A FIFO queue on one power-of-two ring buffer.
 *
 * `std::deque` allocates a block map and a first block when it is
 * constructed, so every queue costs two heap allocations even if it
 * never holds anything.  `Fifo` allocates nothing until its first
 * push, then doubles its ring as needed and keeps it; popping never
 * frees.  It holds move-assignable, default-constructible values.
 */

#ifndef PROFESS_COMMON_FIFO_HH
#define PROFESS_COMMON_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace profess
{

template <typename T>
class Fifo
{
  public:
    bool empty() const { return size_ == 0; }

    void
    push(T v)
    {
        if (size_ == ring_.size())
            grow();
        ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(v);
        ++size_;
    }

    /** Remove and return the oldest value; the queue must not be
     *  empty. */
    T
    pop()
    {
        T v = std::move(ring_[head_]);
        ring_[head_] = T{};
        head_ = (head_ + 1) & (ring_.size() - 1);
        --size_;
        return v;
    }

    /** Drop every value (the ring is kept). */
    void
    clear()
    {
        while (!empty())
            pop();
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(ring_.empty() ? 4 : 2 * ring_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] =
                std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
        ring_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace profess

#endif // PROFESS_COMMON_FIFO_HH
