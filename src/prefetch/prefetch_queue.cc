#include "prefetch/prefetch_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ipref
{

PrefetchQueue::PrefetchQueue(unsigned capacity) : capacity_(capacity)
{
    ipref_assert(capacity_ >= 1);
    slots_.reserve(capacity_);
    lines_.reserve(capacity_);
}

void
PrefetchQueue::erase(std::size_t i)
{
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
    lines_.erase(i);
}

void
PrefetchQueue::makeRoom()
{
    if (slots_.size() < capacity_)
        return;
    // Prefer reclaiming the oldest issued/invalidated record; those
    // only exist opportunistically in "unused" entries.
    if (waitingCount_ < slots_.size()) {
        std::size_t i = 0;
        while (slots_[i].state == State::Waiting)
            ++i;
        erase(i);
        return;
    }
    // All slots hold waiting prefetches: drop the oldest one.
    erase(0);
    --waitingCount_;
    ++overflowDrops;
}

PrefetchQueue::PushResult
PrefetchQueue::push(const PrefetchCandidate &cand)
{
    ++pushes;
    std::size_t i = lines_.find(cand.lineAddr);
    if (i < slots_.size()) {
        switch (slots_[i].state) {
          case State::Waiting: {
            // Hoist the existing entry to the head of the queue.
            // (A move, not std::rotate: Slot is trivially copyable
            // but not trivial, and rotate only memmoves trivial types.)
            Slot s = slots_[i];
            std::move(slots_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      slots_.end(),
                      slots_.begin() + static_cast<std::ptrdiff_t>(i));
            slots_.back() = s;
            lines_.moveToBack(i);
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
    slots_.push_back(Slot{cand, State::Waiting});
    lines_.push_back(cand.lineAddr);
    ++waitingCount_;
    if (waitingCount_ > waitingHighWater_)
        waitingHighWater_ = waitingCount_;
    return PushResult::Inserted;
}

std::optional<PrefetchCandidate>
PrefetchQueue::popForIssue()
{
    for (std::size_t i = slots_.size(); i-- > 0;) {
        Slot &slot = slots_[i];
        if (slot.state == State::Waiting) {
            slot.state = State::Issued;
            --waitingCount_;
            return slot.cand;
        }
    }
    return std::nullopt;
}

void
PrefetchQueue::demandFetched(Addr lineAddr)
{
    // Called on every demand line fetch; with nothing waiting there
    // is nothing to invalidate.
    if (waitingCount_ == 0)
        return;
    std::size_t i = lines_.find(lineAddr);
    if (i < slots_.size() && slots_[i].state == State::Waiting) {
        slots_[i].state = State::Invalidated;
        --waitingCount_;
        ++demandInvalidations;
    }
}

} // namespace ipref
