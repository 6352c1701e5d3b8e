/**
 * @file
 * Differential tests: each optimised structure runs in lockstep with
 * a deliberately naive reference over seeded random operation
 * sequences, and every observable output must agree.
 *
 *  - PrefetchQueue (flat arrays) vs the std::deque queue it replaced;
 *  - SplitAddrs vs a std::vector of addresses;
 *  - LineMap (open addressing, backward-shift erase) vs
 *    std::unordered_map, including degenerate hashes that force long,
 *    wrapping probe chains;
 *  - FixedRing vs a std::deque with the same capacity contract;
 *  - FillHeap vs a std::priority_queue of shared fills, whose pop
 *    order for equal ready cycles decides install (and so eviction)
 *    order in the hierarchy;
 *  - the pointer-writing v3 block encoder vs the push_back encoder it
 *    replaced: identical bytes, and decode(encode(x)) == x.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "prefetch/prefetch_queue.hh"
#include "reference_models.hh"
#include "trace/trace_v3.hh"
#include "util/line_map.hh"
#include "util/ring.hh"
#include "util/rng.hh"
#include "util/split_addrs.hh"

using namespace ipref;

namespace
{

// --- prefetch queue --------------------------------------------------

/**
 * Line @p k of a pool whose lines pair up on their low 32 bits: lines
 * 2j and 2j+1 differ only above bit 32, so a scan that ignored either
 * half of an address would confuse them.
 */
Addr
poolLine(std::uint64_t k)
{
    return 0x40000000 + (k >> 1) * 64 + (k & 1) * (Addr{1} << 40);
}

PrefetchCandidate
randomCandidate(Rng &rng, unsigned pool)
{
    PrefetchCandidate c;
    c.lineAddr = poolLine(rng.below(pool));
    c.origin = static_cast<PrefetchOrigin>(
        rng.below(static_cast<std::uint64_t>(PrefetchOrigin::NumOrigins)));
    c.tableIndex = static_cast<std::uint32_t>(rng.below(1u << 16));
    c.triggerAddr = rng.chance(0.2) ? invalidAddr
                                    : 0x50000000 + rng.below(pool) * 64;
    return c;
}

::testing::AssertionResult
sameQueueState(const PrefetchQueue &q, const ref::DequePrefetchQueue &r)
{
    const std::uint64_t got[] = {q.waiting(),
                                 q.size(),
                                 q.waitingHighWater(),
                                 q.pushes.value(),
                                 q.hoists.value(),
                                 q.duplicateDrops.value(),
                                 q.overflowDrops.value(),
                                 q.demandInvalidations.value()};
    const std::uint64_t want[] = {r.waiting(),
                                  r.size(),
                                  r.waitingHighWater(),
                                  r.pushes.value(),
                                  r.hoists.value(),
                                  r.duplicateDrops.value(),
                                  r.overflowDrops.value(),
                                  r.demandInvalidations.value()};
    const char *names[] = {"waiting", "size", "waiting_high_water",
                           "pushes", "hoists", "duplicate_drops",
                           "overflow_drops", "demand_invalidations"};
    for (std::size_t i = 0; i < std::size(got); ++i)
        if (got[i] != want[i])
            return ::testing::AssertionFailure()
                   << names[i] << ": " << got[i] << " vs reference "
                   << want[i];
    return ::testing::AssertionSuccess();
}

class QueueLockstep
    : public ::testing::TestWithParam<unsigned> // capacity
{};

TEST_P(QueueLockstep, MatchesDequeReference)
{
    const unsigned capacity = GetParam();
    // Issued and invalidated records leave only when a push needs
    // their slot, so a pool no larger than the queue soon holds only
    // records. Pools just above capacity keep duplicates and hoists
    // frequent; several queues' worth keeps overflow frequent.
    for (unsigned pool : {capacity + 1, capacity + 3, 3 * capacity + 4}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << "capacity " << capacity << " pool " << pool
                         << " seed " << seed);
            PrefetchQueue q(capacity);
            ref::DequePrefetchQueue r(capacity);
            Rng rng(seed * 7919 + capacity);
            for (int op = 0; op < 4000; ++op) {
                // Alternate push-heavy bursts (the queue fills and
                // overflows) with balanced stretches (it drains).
                const std::uint64_t pushes = (op / 256) % 2 ? 5 : 8;
                std::uint64_t kind = rng.below(10);
                if (kind < pushes) {
                    PrefetchCandidate c = randomCandidate(rng, pool);
                    ASSERT_EQ(q.push(c), r.push(c)) << "op " << op;
                } else if (kind < pushes + (10 - pushes) * 3 / 5) {
                    auto a = q.popForIssue();
                    auto b = r.popForIssue();
                    ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
                    if (a) {
                        ASSERT_EQ(a->lineAddr, b->lineAddr);
                        ASSERT_EQ(a->origin, b->origin);
                        ASSERT_EQ(a->tableIndex, b->tableIndex);
                        ASSERT_EQ(a->triggerAddr, b->triggerAddr);
                    }
                } else {
                    Addr line = poolLine(rng.below(pool));
                    q.demandFetched(line);
                    r.demandFetched(line);
                }
                ASSERT_TRUE(sameQueueState(q, r)) << "op " << op;
            }
            // The sequences must actually reach every path.
            if (pool > 2 * capacity) {
                EXPECT_GT(q.overflowDrops.value(), 0u);
            }
            EXPECT_GT(q.duplicateDrops.value(), 0u);
            EXPECT_GT(q.demandInvalidations.value(), 0u);
            if (capacity > 1) {
                EXPECT_GT(q.hoists.value(), 0u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueLockstep,
                         ::testing::Values(1u, 2u, 3u, 32u, 64u));

// --- fixed ring ----------------------------------------------------

::testing::AssertionResult
sameRingState(const FixedRing<std::uint64_t> &ring,
              const ref::DequeRing<std::uint64_t> &r)
{
    if (ring.size() != r.size() || ring.capacity() != r.capacity() ||
        ring.empty() != r.empty() || ring.full() != r.full())
        return ::testing::AssertionFailure()
               << "size " << ring.size() << "/" << ring.capacity()
               << " vs reference " << r.size() << "/" << r.capacity();
    if (!ring.empty() && ring.front() != r.front())
        return ::testing::AssertionFailure()
               << "front " << ring.front() << " vs " << r.front();
    for (std::size_t i = 0; i < ring.size(); ++i)
        if (ring[i] != r[i])
            return ::testing::AssertionFailure()
                   << "[" << i << "] " << ring[i] << " vs " << r[i];
    return ::testing::AssertionSuccess();
}

class RingLockstep
    : public ::testing::TestWithParam<std::size_t> // capacity
{};

TEST_P(RingLockstep, MatchesDequeReference)
{
    const std::size_t capacity = GetParam();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                          << " seed " << seed);
        FixedRing<std::uint64_t> ring(capacity);
        ref::DequeRing<std::uint64_t> r(capacity);
        Rng rng(seed * 104729 + capacity);
        std::uint64_t next = 1;
        std::uint64_t fulls = 0, pops = 0, clears = 0, resets = 0;
        for (int op = 0; op < 6000; ++op) {
            // Alternate fill-heavy stretches (the ring fills and its
            // tail wraps) with drain-heavy ones (the head wraps).
            const std::uint64_t adds = (op / 500) % 2 ? 350 : 600;
            const std::uint64_t kind = rng.below(1000);
            if (kind < adds && !ring.full()) {
                const std::uint64_t v = next++;
                if (kind % 2) {
                    ring.push_back(v);
                    r.push_back(v);
                } else {
                    // A recycled slot holds a stale value until the
                    // caller fills it, as the core's stages do.
                    ring.emplace_back() = v;
                    r.emplace_back() = v;
                }
                fulls += ring.full();
            } else if (kind < 997 && !ring.empty()) {
                if (kind < 900) {
                    ring.pop_front();
                    r.pop_front();
                    ++pops;
                } else {
                    const std::size_t i = rng.below(ring.size());
                    const std::uint64_t v = next++;
                    ring[i] = v;
                    r[i] = v;
                }
            } else if (kind >= 997 && kind < 999) {
                ring.clear();
                r.clear();
                ++clears;
            } else if (kind == 999) {
                ring.reset(capacity);
                r.reset(capacity);
                ++resets;
            }
            ASSERT_TRUE(sameRingState(ring, r)) << "op " << op;
        }
        // The sequences must fill the ring and wrap its head many
        // times over, and reach clear() and reset().
        EXPECT_GT(fulls, 0u);
        EXPECT_GT(pops, 4 * capacity);
        EXPECT_GT(clears, 0u);
        EXPECT_GT(resets, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingLockstep,
                         ::testing::Values(1u, 2u, 3u, 24u, 64u));

// --- split address array -------------------------------------------

TEST(SplitAddrsLockstep, MatchesVectorOfAddrs)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        SplitAddrs split;
        std::vector<Addr> ref;
        split.assign(5, invalidAddr);
        ref.assign(5, invalidAddr);
        Rng rng(seed);
        for (int op = 0; op < 4000; ++op) {
            Addr a = poolLine(rng.below(24));
            std::uint64_t kind = rng.below(10);
            if (kind < 3 && ref.size() < 40) {
                split.push_back(a);
                ref.push_back(a);
            } else if (kind < 5 && !ref.empty()) {
                std::size_t i = rng.below(ref.size());
                split.set(i, a);
                ref[i] = a;
            } else if (kind < 6 && !ref.empty()) {
                std::size_t i = rng.below(ref.size());
                split.erase(i);
                ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
            } else if (kind < 7 && !ref.empty()) {
                std::size_t i = rng.below(ref.size());
                split.moveToBack(i);
                Addr moved = ref[i];
                ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
                ref.push_back(moved);
            }
            ASSERT_EQ(split.size(), ref.size()) << "op " << op;
            std::size_t want =
                static_cast<std::size_t>(
                    std::find(ref.begin(), ref.end(), a) - ref.begin());
            ASSERT_EQ(split.find(a), want) << "op " << op;
            ASSERT_EQ(split.contains(a), want < ref.size()) << "op " << op;
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(split[i], ref[i]) << "op " << op << " index " << i;
        }
    }
}

// --- line map --------------------------------------------------------

/** Every key in one chain. */
struct ConstantHash
{
    std::size_t operator()(Addr) const { return 0; }
};

/** Every key homes in the last slot, so every chain wraps. */
struct LastSlotHash
{
    std::size_t operator()(Addr) const { return ~std::size_t{0}; }
};

/** Three interleaved chains that collide and overlap. */
struct ThreeBucketHash
{
    std::size_t
    operator()(Addr a) const
    {
        return static_cast<std::size_t>((a >> 6) % 3) * 5 + 3;
    }
};

template <typename Hash>
void
lineMapLockstep(unsigned pool, std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "pool " << pool << " seed "
                                      << seed);
    LineMap<std::uint64_t, Hash> map(4); // start tiny: force growth
    std::unordered_map<Addr, std::uint64_t> ref;
    Rng rng(seed);
    auto key = [&](std::uint64_t i) { return 0x7fff0000 + i * 64; };
    std::size_t grown = map.capacity();
    for (int op = 0; op < 3000; ++op) {
        Addr k = key(rng.below(pool));
        std::uint64_t kind = rng.below(10);
        if (kind < 4) {
            std::uint64_t v = rng.next();
            map.put(k, v);
            ref[k] = v;
        } else if (kind < 8) {
            ASSERT_EQ(map.erase(k), ref.erase(k) == 1) << "op " << op;
        } else {
            const std::uint64_t *v = map.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op;
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
        }
        ASSERT_EQ(map.size(), ref.size());
        // A full sweep every few ops catches an erase that stranded a
        // key behind a hole in its chain.
        if (op % 16 == 0) {
            for (unsigned i = 0; i < pool; ++i) {
                auto it = ref.find(key(i));
                const std::uint64_t *v = map.find(key(i));
                ASSERT_EQ(v != nullptr, it != ref.end())
                    << "key " << i << " after op " << op;
                if (v) {
                    ASSERT_EQ(*v, it->second);
                }
            }
        }
        grown = std::max(grown, map.capacity());
    }
    EXPECT_GT(grown, 4u);
}

TEST(LineMapLockstep, DefaultHashMatchesUnorderedMap)
{
    for (unsigned pool : {4u, 40u, 400u})
        for (std::uint64_t seed : {1u, 2u})
            lineMapLockstep<LineHash>(pool, seed);
}

TEST(LineMapLockstep, OneChainMatchesUnorderedMap)
{
    for (unsigned pool : {4u, 24u})
        for (std::uint64_t seed : {3u, 4u})
            lineMapLockstep<ConstantHash>(pool, seed);
}

TEST(LineMapLockstep, WrappingChainsMatchUnorderedMap)
{
    for (unsigned pool : {4u, 24u})
        for (std::uint64_t seed : {5u, 6u})
            lineMapLockstep<LastSlotHash>(pool, seed);
}

TEST(LineMapLockstep, OverlappingChainsMatchUnorderedMap)
{
    for (unsigned pool : {6u, 48u})
        for (std::uint64_t seed : {7u, 8u})
            lineMapLockstep<ThreeBucketHash>(pool, seed);
}

TEST(LineMap, EraseInChainKeepsLaterKeysReachable)
{
    // Four keys in one chain starting at the last slot of a 16-slot
    // table: the chain wraps to slots 0..2. Erasing each position in
    // turn must leave the other three findable.
    for (int victim = 0; victim < 4; ++victim) {
        LineMap<int, LastSlotHash> map(16);
        for (int i = 0; i < 4; ++i)
            map.put(0x1000 + i * 64, i);
        ASSERT_EQ(map.capacity(), 16u);
        ASSERT_TRUE(map.erase(0x1000 + victim * 64));
        for (int i = 0; i < 4; ++i) {
            const int *v = map.find(0x1000 + i * 64);
            if (i == victim) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr) << "victim " << victim << " key " << i;
                EXPECT_EQ(*v, i);
            }
        }
        EXPECT_FALSE(map.erase(0x1000 + victim * 64));
    }
}

// --- v3 block encoder ------------------------------------------------

constexpr unsigned kOpClasses =
    static_cast<unsigned>(OpClass::NumOpClasses);

/** Smallest delta whose zigzag varint takes all 10 bytes, plus one. */
constexpr Addr kWideDelta = (Addr{1} << 62) + 1;

/** @p base moved by a small, negative or 10-byte-varint delta. */
Addr
wildStep(Rng &rng, Addr base)
{
    switch (rng.below(4)) {
      case 0: return base + rng.below(64);
      case 1: return base - 1 - rng.below(64);
      case 2: return base + (rng.chance(0.5) ? kWideDelta : -kWideDelta);
      default: return rng.next();
    }
}

/** How randomBlock picks op classes. */
enum class OpRuns
{
    Cycle, //!< every class in turn: one-record runs
    Short, //!< a new random class with chance 1/5
    Long,  //!< chance 1/500: runs past 127 take 2-byte varints
};

/**
 * A random block of @p n records stressing every column: wild pc,
 * target and data deltas, absent targets and data addresses, and op
 * runs shaped by @p runs.
 */
std::vector<InstrRecord>
randomBlock(Rng &rng, std::size_t n, OpRuns runs)
{
    std::vector<InstrRecord> recs(n);
    Addr pc = rng.next();
    Addr data = rng.next();
    OpClass op = OpClass::IntAlu;
    for (std::size_t i = 0; i < n; ++i) {
        InstrRecord &r = recs[i];
        r.pc = pc = i == 0 ? pc : wildStep(rng, pc);
        if (runs == OpRuns::Cycle)
            op = static_cast<OpClass>(i % kOpClasses);
        else if (rng.chance(runs == OpRuns::Short ? 0.2 : 0.002))
            op = static_cast<OpClass>(rng.below(kOpClasses));
        r.op = op;
        r.taken = rng.chance(0.5);
        r.target = rng.chance(0.3) ? 0 : wildStep(rng, pc);
        if (rng.chance(0.6))
            r.dataAddr = data = wildStep(rng, data);
        r.srcReg[0] = static_cast<std::uint8_t>(rng.below(256));
        r.srcReg[1] = static_cast<std::uint8_t>(rng.below(256));
        r.dstReg = static_cast<std::uint8_t>(rng.below(256));
    }
    return recs;
}

void
expectSameRecord(const InstrRecord &got, const InstrRecord &want,
                 std::size_t i)
{
    ASSERT_EQ(got.pc, want.pc) << "record " << i;
    ASSERT_EQ(got.op, want.op) << "record " << i;
    ASSERT_EQ(got.taken, want.taken) << "record " << i;
    ASSERT_EQ(got.target, want.target) << "record " << i;
    ASSERT_EQ(got.dataAddr, want.dataAddr) << "record " << i;
    ASSERT_EQ(got.srcReg[0], want.srcReg[0]) << "record " << i;
    ASSERT_EQ(got.srcReg[1], want.srcReg[1]) << "record " << i;
    ASSERT_EQ(got.dstReg, want.dstReg) << "record " << i;
}

/** Encode @p recs both ways, compare bytes, and round-trip them. */
void
checkEncoders(const std::vector<InstrRecord> &recs, bool dataAddresses,
              std::vector<unsigned char> &fast,
              std::vector<unsigned char> &ref)
{
    encodeTraceBlockV3(recs, dataAddresses, fast);
    ref::encodeTraceBlockV3Bytewise(recs, dataAddresses, ref);
    ASSERT_EQ(fast, ref);
    ASSERT_LE(fast.size(), traceV3MaxBlockBytes(recs.size()));

    std::vector<InstrRecord> back(recs.size());
    decodeTraceBlockV3(fast.data(), fast.size(), recs.size(),
                       dataAddresses, back.data());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        InstrRecord want = recs[i];
        if (!dataAddresses)
            want.dataAddr = 0;
        expectSameRecord(back[i], want, i);
    }
}

TEST(TraceEncoderLockstep, MatchesBytewiseEncoderAndRoundTrips)
{
    // The output vectors are reused across blocks, as the writer
    // reuses its encode scratch.
    std::vector<unsigned char> fast, ref;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        for (std::size_t n : {1u, 7u, 8u, 9u, 4096u,
                              1u + static_cast<unsigned>(rng.below(600))}) {
            for (OpRuns runs :
                 {OpRuns::Cycle, OpRuns::Short, OpRuns::Long}) {
                std::vector<InstrRecord> recs = randomBlock(rng, n, runs);
                for (bool data : {true, false}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "seed " << seed << " n " << n
                                 << " runs " << static_cast<int>(runs)
                                 << " data " << data);
                    checkEncoders(recs, data, fast, ref);
                }
            }
        }
    }
}

TEST(TraceEncoderLockstep, WorstCaseBlockMeetsTheBoundExactly)
{
    // Every varint at its 10-byte maximum and one-record op runs: the
    // encoding fills traceV3MaxBlockBytes(n) to the byte, so the
    // bound that sizes the encoder and vets frames is exact.
    std::vector<unsigned char> fast, ref;
    for (std::size_t n : {1u, 2u, 7u, 8u, 9u, 4096u}) {
        SCOPED_TRACE(::testing::Message() << "n " << n);
        std::vector<InstrRecord> recs(n);
        Addr pc = ~Addr{0};
        Addr data = 0;
        for (std::size_t i = 0; i < n; ++i) {
            recs[i].pc = pc;
            recs[i].op = static_cast<OpClass>(i % 2);
            recs[i].taken = true;
            recs[i].target = pc + kWideDelta;
            recs[i].dataAddr = data += kWideDelta;
            pc += kWideDelta;
        }
        checkEncoders(recs, true, fast, ref);
        EXPECT_EQ(fast.size(), traceV3MaxBlockBytes(n));
    }
}

// --- fill heap -------------------------------------------------------

/** The shape of the shared_ptr fill queue FillHeap replaced. */
struct RefFill
{
    Cycle ready;
    FillId id;
};
struct RefFillLater
{
    bool
    operator()(const std::shared_ptr<RefFill> &a,
               const std::shared_ptr<RefFill> &b) const
    {
        return a->ready > b->ready;
    }
};

TEST(FillHeapLockstep, TiesPopInPriorityQueueOrder)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        for (std::uint64_t spread : {1u, 3u, 40u}) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed
                                              << " spread " << spread);
            FillHeap heap;
            std::priority_queue<std::shared_ptr<RefFill>,
                                std::vector<std::shared_ptr<RefFill>>,
                                RefFillLater>
                ref;
            Rng rng(seed);
            Cycle now = 0;
            FillId next = 0;
            unsigned ties = 0;
            for (int op = 0; op < 5000; ++op) {
                if (rng.chance(0.55)) {
                    // Few distinct ready values: most pushes tie with
                    // a fill already queued.
                    Cycle ready = now + rng.below(spread);
                    heap.push(ready, next);
                    ref.push(std::make_shared<RefFill>(
                        RefFill{ready, next}));
                    ++next;
                } else {
                    now += rng.below(2);
                    while (!ref.empty() && ref.top()->ready <= now) {
                        ASSERT_FALSE(heap.empty());
                        ASSERT_EQ(heap.nextReady(), ref.top()->ready);
                        FillId id = heap.pop();
                        ASSERT_EQ(id, ref.top()->id) << "op " << op;
                        ref.pop();
                        if (!ref.empty() && ref.top()->ready <= now)
                            ++ties;
                    }
                }
                ASSERT_EQ(heap.empty(), ref.empty());
            }
            while (!ref.empty()) {
                ASSERT_EQ(heap.pop(), ref.top()->id);
                ref.pop();
            }
            EXPECT_TRUE(heap.empty());
            EXPECT_GT(ties, 0u);
        }
    }
}

} // namespace
