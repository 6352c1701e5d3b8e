/**
 * @file
 * Deliberately naive reference versions of optimised structures, for
 * differential tests (tests/test_reference_models.cc) and for the
 * paired micro-benchmarks in bench/micro_structures.cc.
 *
 * DequePrefetchQueue is the std::deque prefetch queue that
 * PrefetchQueue's flat arrays replaced, kept as it was: newest slot
 * at the front, linear walks in deque order, erase-and-reinsert
 * hoists.
 */

#ifndef IPREF_TESTS_REFERENCE_MODELS_HH
#define IPREF_TESTS_REFERENCE_MODELS_HH

#include <deque>
#include <iterator>
#include <optional>

#include "prefetch/prefetch_queue.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace ipref::ref
{

class DequePrefetchQueue
{
  public:
    using PushResult = PrefetchQueue::PushResult;

    explicit DequePrefetchQueue(unsigned capacity) : capacity_(capacity)
    {
        ipref_assert(capacity_ >= 1);
    }

    PushResult
    push(const PrefetchCandidate &cand)
    {
        ++pushes;
        for (auto it = slots_.begin(); it != slots_.end(); ++it) {
            if (it->cand.lineAddr != cand.lineAddr)
                continue;
            switch (it->state) {
              case State::Waiting: {
                // Hoist the existing entry to the head of the queue.
                Slot s = *it;
                slots_.erase(it);
                slots_.push_front(s);
                ++hoists;
                return PushResult::Hoisted;
              }
              case State::Issued:
                ++duplicateDrops;
                return PushResult::DroppedIssued;
              case State::Invalidated:
                ++duplicateDrops;
                return PushResult::DroppedInvalid;
            }
        }
        makeRoom();
        slots_.push_front(Slot{cand, State::Waiting});
        ++waitingCount_;
        if (waitingCount_ > waitingHighWater_)
            waitingHighWater_ = waitingCount_;
        return PushResult::Inserted;
    }

    std::optional<PrefetchCandidate>
    popForIssue()
    {
        for (auto &slot : slots_) {
            if (slot.state == State::Waiting) {
                slot.state = State::Issued;
                --waitingCount_;
                return slot.cand;
            }
        }
        return std::nullopt;
    }

    void
    demandFetched(Addr lineAddr)
    {
        if (waitingCount_ == 0)
            return;
        for (auto &slot : slots_) {
            if (slot.state == State::Waiting &&
                slot.cand.lineAddr == lineAddr) {
                slot.state = State::Invalidated;
                --waitingCount_;
                ++demandInvalidations;
            }
        }
    }

    unsigned waiting() const { return waitingCount_; }
    bool hasWaiting() const { return waitingCount_ > 0; }
    unsigned size() const { return static_cast<unsigned>(slots_.size()); }
    unsigned waitingHighWater() const { return waitingHighWater_; }

    Counter pushes;
    Counter hoists;
    Counter duplicateDrops;
    Counter overflowDrops;
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

    void
    makeRoom()
    {
        if (slots_.size() < capacity_)
            return;
        for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
            if (it->state != State::Waiting) {
                slots_.erase(std::next(it).base());
                return;
            }
        }
        slots_.pop_back();
        --waitingCount_;
        ++overflowDrops;
    }

    std::deque<Slot> slots_; //!< front = newest
    unsigned capacity_;
    unsigned waitingCount_ = 0;
    unsigned waitingHighWater_ = 0;
};

} // namespace ipref::ref

#endif // IPREF_TESTS_REFERENCE_MODELS_HH
