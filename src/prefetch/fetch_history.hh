/**
 * @file
 * Recent-demand-fetch filter (Section 4.1): a small ring of the last
 * N demand-fetched line addresses; prefetch candidates matching a
 * recent demand fetch are dropped before entering the queue.
 */

#ifndef IPREF_PREFETCH_FETCH_HISTORY_HH
#define IPREF_PREFETCH_FETCH_HISTORY_HH

#include "util/split_addrs.hh"
#include "util/types.hh"

namespace ipref
{

/** Ring buffer of recently demand-fetched lines. */
class FetchHistory
{
  public:
    explicit FetchHistory(unsigned capacity)
    {
        ring_.assign(capacity, invalidAddr);
    }

    /** Record a demand fetch of @p lineAddr. */
    void
    push(Addr lineAddr)
    {
        if (ring_.size() == 0) // history filter disabled
            return;
        ring_.set(head_, lineAddr);
        // Conditional wrap: this runs once per demand fetch, so avoid
        // the integer divide of a modulo.
        if (++head_ == ring_.size())
            head_ = 0;
    }

    /** Was @p lineAddr demand fetched recently? */
    bool contains(Addr lineAddr) const { return ring_.contains(lineAddr); }

    unsigned capacity() const { return static_cast<unsigned>(ring_.size()); }

  private:
    SplitAddrs ring_;
    std::size_t head_ = 0;
};

} // namespace ipref

#endif // IPREF_PREFETCH_FETCH_HISTORY_HH
