/**
 * @file
 * Open-addressed hash map keyed by line address.
 *
 * Replaces std::unordered_map for the small per-access tables on the
 * cache/prefetch hot path (the hierarchy's in-flight fill index, the
 * prefetch engine's lifecycle records): keys and values live in two
 * flat power-of-two arrays, collisions probe linearly, and erase
 * shifts the rest of the probe chain back instead of leaving
 * tombstones, so a lookup never walks further than the chain its key
 * hashes into. invalidAddr marks an empty slot and therefore cannot
 * be a key.
 *
 * Nothing iterates the map, so its internal order never reaches a
 * result.
 */

#ifndef IPREF_UTIL_LINE_MAP_HH
#define IPREF_UTIL_LINE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace ipref
{

/** Default slot hash: the 64-bit MurmurHash3 finalizer's first
 *  multiply-xorshift round, enough to spread line-aligned keys. */
struct LineHash
{
    std::size_t
    operator()(Addr a) const
    {
        a ^= a >> 33;
        a *= 0xff51afd7ed558ccdULL;
        a ^= a >> 33;
        return static_cast<std::size_t>(a);
    }
};

template <typename V, typename Hash = LineHash>
class LineMap
{
  public:
    /** @p capacity slots to start with (rounded up to a power of
     *  two); the table doubles once it is a quarter full. The low
     *  load keeps most misses, the common lookup on the hot path, at
     *  one probe into an empty slot. */
    explicit LineMap(std::size_t capacity = 16)
    {
        std::size_t n = 4;
        while (n < capacity)
            n <<= 1;
        keys_.assign(n, invalidAddr);
        values_.assign(n, V{});
        mask_ = n - 1;
    }

    std::size_t size() const { return size_; }

    /** Slot count (a power of two). */
    std::size_t capacity() const { return keys_.size(); }

    /** The value stored under @p key, or nullptr. */
    V *
    find(Addr key)
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                return &values_[i];
            if (keys_[i] == invalidAddr)
                return nullptr;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<LineMap *>(this)->find(key);
    }

    /** Store @p value under @p key, replacing any previous value. */
    V &
    put(Addr key, V value)
    {
        ipref_assert(key != invalidAddr);
        if ((size_ + 1) * 4 > keys_.size())
            grow();
        std::size_t i = home(key);
        while (keys_[i] != invalidAddr && keys_[i] != key)
            i = (i + 1) & mask_;
        if (keys_[i] == invalidAddr) {
            keys_[i] = key;
            ++size_;
        }
        values_[i] = std::move(value);
        return values_[i];
    }

    /** Remove @p key; @return whether it was present. */
    bool
    erase(Addr key)
    {
        std::size_t i = home(key);
        while (keys_[i] != key) {
            if (keys_[i] == invalidAddr)
                return false;
            i = (i + 1) & mask_;
        }
        // Backward-shift deletion: walk the rest of the chain and
        // move into the hole every entry whose home lies cyclically
        // at or before the hole (its probe path crosses the hole), so
        // no lookup ever meets an empty slot before its key.
        for (std::size_t j = (i + 1) & mask_; keys_[j] != invalidAddr;
             j = (j + 1) & mask_) {
            std::size_t h = home(keys_[j]);
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                keys_[i] = keys_[j];
                values_[i] = std::move(values_[j]);
                i = j;
            }
        }
        keys_[i] = invalidAddr;
        --size_;
        return true;
    }

  private:
    std::size_t home(Addr key) const { return Hash{}(key) & mask_; }

    void
    grow()
    {
        std::vector<Addr> oldKeys(keys_.size() * 2, invalidAddr);
        std::vector<V> oldValues(values_.size() * 2);
        oldKeys.swap(keys_);
        oldValues.swap(values_);
        mask_ = keys_.size() - 1;
        for (std::size_t j = 0; j < oldKeys.size(); ++j) {
            if (oldKeys[j] == invalidAddr)
                continue;
            std::size_t i = home(oldKeys[j]);
            while (keys_[i] != invalidAddr)
                i = (i + 1) & mask_;
            keys_[i] = oldKeys[j];
            values_[i] = std::move(oldValues[j]);
        }
    }

    /** Probing reads only the keys; a value is touched on a hit. */
    std::vector<Addr> keys_;
    std::vector<V> values_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace ipref

#endif // IPREF_UTIL_LINE_MAP_HH
