/**
 * @file
 * The prefetch queue of Section 4.1: a fixed-capacity LIFO structure
 * holding prefetches awaiting the instruction-cache tag port.
 *
 * Behaviours reproduced from the paper:
 *  - last-in, first-out issue (de-emphasizes stale prefetches);
 *  - overflow drops the oldest prefetches first;
 *  - duplicate pushes never create a second entry: a waiting
 *    duplicate is hoisted to the head, a duplicate of an issued or
 *    invalidated record is dropped;
 *  - demand fetches invalidate matching waiting entries;
 *  - unused slots retain records of issued/invalidated prefetches so
 *    near-future duplicates can be suppressed.
 *
 * Slots are stored oldest-first in one flat array, with a parallel
 * array of their line addresses for the push and invalidation scans.
 * A push never creates a second slot for a line, so each line owns at
 * most one slot and a scan's direction cannot change its outcome.
 */

#ifndef IPREF_PREFETCH_PREFETCH_QUEUE_HH
#define IPREF_PREFETCH_PREFETCH_QUEUE_HH

#include <optional>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "util/split_addrs.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace ipref
{

/** The per-core prefetch queue. */
class PrefetchQueue
{
  public:
    explicit PrefetchQueue(unsigned capacity);

    /** Result of a push. */
    enum class PushResult
    {
        Inserted,       //!< new entry at the head
        Hoisted,        //!< waiting duplicate moved to the head
        DroppedIssued,  //!< duplicate of an already-issued prefetch
        DroppedInvalid, //!< duplicate of an invalidated prefetch
    };

    /** Offer a candidate to the queue. */
    PushResult push(const PrefetchCandidate &cand);

    /**
     * Take the newest waiting prefetch for issue; its slot becomes an
     * "issued" record that stays behind for duplicate suppression.
     */
    std::optional<PrefetchCandidate> popForIssue();

    /** A demand fetch of @p lineAddr invalidates matching entries. */
    void demandFetched(Addr lineAddr);

    /** Waiting entries currently queued. */
    unsigned waiting() const { return waitingCount_; }

    /** O(1) check used by the engine's per-cycle fast path. */
    bool hasWaiting() const { return waitingCount_ > 0; }

    /** All occupied slots (waiting + records). */
    unsigned size() const { return static_cast<unsigned>(slots_.size()); }

    unsigned capacity() const { return capacity_; }

    /** Most waiting entries ever queued at once (backpressure gauge). */
    unsigned waitingHighWater() const { return waitingHighWater_; }

    // Statistics.
    Counter pushes;
    Counter hoists;
    Counter duplicateDrops;
    Counter overflowDrops;   //!< waiting prefetches lost to overflow
    Counter demandInvalidations;

  private:
    enum class State : std::uint8_t
    {
        Waiting,
        Issued,
        Invalidated,
    };
    struct Slot
    {
        PrefetchCandidate cand;
        State state;
    };

    /** Make room for one more slot; drops records before prefetches. */
    void makeRoom();

    /** Remove the slot at index @p i, keeping the order of the rest. */
    void erase(std::size_t i);

    std::vector<Slot> slots_; //!< front = oldest, back = newest
    SplitAddrs lines_;        //!< lines_[i] == slots_[i].cand.lineAddr
    unsigned capacity_;
    unsigned waitingCount_ = 0; //!< slots in State::Waiting
    unsigned waitingHighWater_ = 0;
};

} // namespace ipref

#endif // IPREF_PREFETCH_PREFETCH_QUEUE_HH
