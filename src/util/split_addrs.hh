/**
 * @file
 * An array of addresses stored as separate low and high 32-bit
 * halves, for the small arrays the prefetch filters scan on every
 * candidate (the recent-fetch history, the prefetch queue's lines).
 *
 * Baseline x86-64 has no 64-bit vector compare (SSE4.1 adds one), so
 * a scan of 64-bit addresses runs one scalar compare per entry. Split
 * into halves, the same scan compiles to 32-bit vector compares on any
 * SSE2 or NEON target. contains() has no early exit: it reads every
 * entry, which is what the vector loop needs and what a miss, the
 * common case in the filters, costs anyway.
 */

#ifndef IPREF_UTIL_SPLIT_ADDRS_HH
#define IPREF_UTIL_SPLIT_ADDRS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace ipref
{

class SplitAddrs
{
  public:
    std::size_t size() const { return lo_.size(); }

    Addr
    operator[](std::size_t i) const
    {
        return static_cast<Addr>(hi_[i]) << 32 | lo_[i];
    }

    /** Replace the contents with @p n copies of @p a. */
    void
    assign(std::size_t n, Addr a)
    {
        lo_.assign(n, low(a));
        hi_.assign(n, high(a));
    }

    void
    reserve(std::size_t n)
    {
        lo_.reserve(n);
        hi_.reserve(n);
    }

    void
    set(std::size_t i, Addr a)
    {
        lo_[i] = low(a);
        hi_[i] = high(a);
    }

    void
    push_back(Addr a)
    {
        lo_.push_back(low(a));
        hi_.push_back(high(a));
    }

    /** Remove entry @p i, keeping the order of the rest. */
    void
    erase(std::size_t i)
    {
        auto at = static_cast<std::ptrdiff_t>(i);
        lo_.erase(lo_.begin() + at);
        hi_.erase(hi_.begin() + at);
    }

    /** Move entry @p i to the back, keeping the order of the rest. */
    void
    moveToBack(std::size_t i)
    {
        auto at = static_cast<std::ptrdiff_t>(i);
        std::rotate(lo_.begin() + at, lo_.begin() + at + 1, lo_.end());
        std::rotate(hi_.begin() + at, hi_.begin() + at + 1, hi_.end());
    }

    /** Does any entry equal @p a? */
    bool
    contains(Addr a) const
    {
        const std::uint32_t l = low(a);
        const std::uint32_t h = high(a);
        std::uint32_t hit = 0;
        for (std::size_t i = 0; i < lo_.size(); ++i)
            hit |= -static_cast<std::uint32_t>((lo_[i] == l) &
                                               (hi_[i] == h));
        return hit != 0;
    }

    /** Index of the first entry equal to @p a, or size(). */
    std::size_t
    find(Addr a) const
    {
        if (!contains(a)) // the common miss: one vector pass
            return size();
        std::size_t i = 0;
        while (i < size() && (*this)[i] != a)
            ++i;
        return i;
    }

  private:
    static std::uint32_t low(Addr a) { return static_cast<std::uint32_t>(a); }
    static std::uint32_t
    high(Addr a)
    {
        return static_cast<std::uint32_t>(a >> 32);
    }

    std::vector<std::uint32_t> lo_;
    std::vector<std::uint32_t> hi_;
};

} // namespace ipref

#endif // IPREF_UTIL_SPLIT_ADDRS_HH
