/**
 * @file
 * Fixed-capacity ring buffer over contiguous storage.
 *
 * Replaces std::deque in per-cycle pipeline structures (ROB, fetch
 * buffer): capacity is known at construction, elements live in one
 * flat allocation (no segment chasing, no per-push malloc), and
 * iteration in logical order is a linear scan with a single wrap.
 * Indices wrap by conditional subtraction, so the capacity does not
 * have to be a power of two.
 */

#ifndef IPREF_UTIL_RING_HH
#define IPREF_UTIL_RING_HH

#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace ipref
{

template <typename T>
class FixedRing
{
  public:
    FixedRing() = default;

    explicit FixedRing(std::size_t capacity) { reset(capacity); }

    /** (Re)allocate for @p capacity elements and clear. */
    void
    reset(std::size_t capacity)
    {
        buf_.assign(capacity ? capacity : 1, T{});
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return buf_.size(); }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == buf_.size(); }

    /** Element @p i in logical (oldest-first) order. */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    /** Append a copy of @p v; the ring must not be full. */
    void
    push_back(const T &v)
    {
        ipref_assert(!full());
        buf_[wrap(head_ + count_)] = v;
        ++count_;
    }

    /** Append a slot and return it. The slot may hold a value popped
     *  earlier, so the caller fills every field in place. */
    T &
    emplace_back()
    {
        ipref_assert(!full());
        T &slot = buf_[wrap(head_ + count_)];
        ++count_;
        return slot;
    }

    void
    pop_front()
    {
        ipref_assert(!empty());
        head_ = wrap(head_ + 1);
        --count_;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace ipref

#endif // IPREF_UTIL_RING_HH
