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
 *
 * DequeRing is the std::deque that FixedRing replaced in the ROB and
 * the fetch buffer, with FixedRing's capacity contract on top.
 *
 * jsonEscapeBytewise and jsonHexStream are the JSON emit helpers that
 * util/json.hh's bulk-appending jsonEscape and to_chars jsonHex
 * replaced: one switch and append per character, and an
 * ostringstream per number.
 */

#ifndef IPREF_TESTS_REFERENCE_MODELS_HH
#define IPREF_TESTS_REFERENCE_MODELS_HH

#include <cstddef>
#include <deque>
#include <iterator>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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

template <typename T>
class DequeRing
{
  public:
    explicit DequeRing(std::size_t capacity) { reset(capacity); }

    void
    reset(std::size_t capacity)
    {
        items_.clear();
        capacity_ = capacity ? capacity : 1;
    }

    std::size_t size() const { return items_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return items_.empty(); }
    bool full() const { return items_.size() == capacity_; }

    T &operator[](std::size_t i) { return items_[i]; }
    const T &operator[](std::size_t i) const { return items_[i]; }
    const T &front() const { return items_.front(); }

    void
    push_back(const T &v)
    {
        ipref_assert(!full());
        items_.push_back(v);
    }

    T &
    emplace_back()
    {
        ipref_assert(!full());
        return items_.emplace_back();
    }

    void
    pop_front()
    {
        ipref_assert(!empty());
        items_.pop_front();
    }

    void clear() { items_.clear(); }

  private:
    std::deque<T> items_;
    std::size_t capacity_ = 1;
};

inline std::string
jsonEscapeBytewise(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

inline std::string
jsonHexStream(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

} // namespace ipref::ref

#endif // IPREF_TESTS_REFERENCE_MODELS_HH
