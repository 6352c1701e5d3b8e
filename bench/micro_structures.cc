/**
 * @file
 * google-benchmark micro-benchmarks of the core data structures:
 * cache access, predictor probe/allocate, prefetch queue operations,
 * the in-flight line table, branch predictor updates and
 * workload-generation throughput.
 *
 * Optimised structures are paired with the naive layout they
 * replaced (pointer-chasing cache sets, the std::deque prefetch
 * queue, std::unordered_map, a whole-CDF Zipf lower_bound, the
 * scalar workload step) on one operation stream each; CI checks
 * that no optimised side is slower than its reference.
 *
 * Two heap probes report a `bytes` counter, the glibc mallinfo2()
 * in-use delta around a construction: BM_ProgramImageBytes/k for one
 * preset's ProgramCfg, and BM_SystemHeapBytes/<scheme>/<cores> for a
 * DB System per registered scheme. CI bounds the DB program image.
 */

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cpu/branch_predictor.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/prefetch_queue.hh"
#include "prefetch/scheme_registry.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "tests/reference_models.hh"
#include "util/line_map.hh"
#include "util/rng.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

void
BM_CacheAccessHit(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 32u << 10;
    SetAssocCache cache(p);
    for (Addr a = 0; a < (32u << 10); a += 64)
        cache.insert(0x10000000 + a, {});
    Rng rng(1);
    for (auto _ : state) {
        Addr a = 0x10000000 + rng.below(512) * 64;
        benchmark::DoNotOptimize(cache.access(a));
    }
}
BENCHMARK(BM_CacheAccessHit);

/**
 * Reference pointer-chasing cache layout: one heap node per line,
 * sets as vectors of owning pointers — what SetAssocCache looked
 * like before the packed structure-of-arrays tag store. Kept here so
 * the set-probe pair below measures the layout change in isolation.
 */
class PointerChasingCache
{
  public:
    PointerChasingCache(std::uint64_t sizeBytes, unsigned assoc,
                        unsigned lineBytes)
        : numSets_(sizeBytes / (static_cast<std::uint64_t>(assoc) *
                                lineBytes)),
          shift_(static_cast<unsigned>(__builtin_ctz(lineBytes)))
    {
        sets_.resize(numSets_);
        for (auto &set : sets_)
            for (unsigned w = 0; w < assoc; ++w)
                set.push_back(std::make_unique<Line>());
    }

    bool
    probe(Addr addr) const
    {
        const Addr tag = addr >> shift_;
        const auto &set = sets_[tag & (numSets_ - 1)];
        for (const auto &line : set)
            if (line->valid && line->tag == tag)
                return true;
        return false;
    }

    void
    insert(Addr addr)
    {
        const Addr tag = addr >> shift_;
        auto &set = sets_[tag & (numSets_ - 1)];
        for (auto &line : set) {
            if (!line->valid) {
                line->valid = true;
                line->tag = tag;
                return;
            }
        }
        set[0]->tag = tag;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t touch = 0;
        bool valid = false;
        std::uint8_t flags = 0;
        CoreId srcCore = 0;
    };
    std::vector<std::vector<std::unique_ptr<Line>>> sets_;
    std::uint64_t numSets_;
    unsigned shift_;
};

/** Random 2MB-footprint probe stream: half resident, half missing. */
Addr
probeAddr(Rng &rng)
{
    return 0x10000000 + rng.below(1u << 15) * 64;
}

void
BM_SetProbePointerChasing(benchmark::State &state)
{
    PointerChasingCache cache(512u << 10, 8, 64);
    Rng fill(7);
    for (int i = 0; i < 16384; ++i)
        cache.insert(probeAddr(fill));
    Rng rng(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(probeAddr(rng)));
}
BENCHMARK(BM_SetProbePointerChasing);

void
BM_SetProbePackedTags(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 512u << 10;
    p.assoc = 8;
    SetAssocCache cache(p);
    Rng fill(7);
    for (int i = 0; i < 16384; ++i)
        cache.insert(probeAddr(fill), {});
    Rng rng(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(probeAddr(rng)));
}
BENCHMARK(BM_SetProbePackedTags);

void
BM_CacheAccessMissAndInsert(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 32u << 10;
    SetAssocCache cache(p);
    Addr a = 0x10000000;
    for (auto _ : state) {
        if (!cache.access(a).hit)
            cache.insert(a, {});
        a += 64 * 17;
    }
}
BENCHMARK(BM_CacheAccessMissAndInsert);

void
BM_DiscontinuityLookup(benchmark::State &state)
{
    DiscontinuityPredictor pred(
        static_cast<unsigned>(state.range(0)), 64);
    Rng rng(2);
    for (int i = 0; i < state.range(0); ++i)
        pred.allocate(0x10000000 + rng.below(1u << 20) * 64,
                      0x20000000 + rng.below(1u << 20) * 64);
    for (auto _ : state) {
        Addr probe = 0x10000000 + rng.below(1u << 20) * 64;
        benchmark::DoNotOptimize(pred.lookup(probe));
    }
}
BENCHMARK(BM_DiscontinuityLookup)->Arg(256)->Arg(8192);

void
BM_DiscontinuityAllocate(benchmark::State &state)
{
    DiscontinuityPredictor pred(8192, 64);
    Rng rng(3);
    for (auto _ : state) {
        pred.allocate(0x10000000 + rng.below(1u << 20) * 64,
                      0x20000000 + rng.below(1u << 20) * 64);
    }
}
BENCHMARK(BM_DiscontinuityAllocate);

template <typename Queue>
void
prefetchQueueChurn(benchmark::State &state)
{
    Queue q(32);
    Rng rng(4);
    for (auto _ : state) {
        PrefetchCandidate c;
        c.lineAddr = rng.below(4096) * 64;
        q.push(c);
        if (rng.chance(0.5))
            benchmark::DoNotOptimize(q.popForIssue());
        if (rng.chance(0.1))
            q.demandFetched(rng.below(4096) * 64);
    }
}

void
BM_PrefetchQueueChurn(benchmark::State &state)
{
    prefetchQueueChurn<PrefetchQueue>(state);
}
BENCHMARK(BM_PrefetchQueueChurn);

void
BM_PrefetchQueueChurnDeque(benchmark::State &state)
{
    prefetchQueueChurn<ref::DequePrefetchQueue>(state);
}
BENCHMARK(BM_PrefetchQueueChurnDeque);

using FlatLineTable = LineMap<std::uint32_t>;
using NodeLineTable = std::unordered_map<Addr, std::uint32_t>;

bool
tableHas(const FlatLineTable &t, Addr line)
{
    return t.find(line) != nullptr;
}

bool
tableHas(const NodeLineTable &t, Addr line)
{
    return t.find(line) != t.end();
}

void tablePut(FlatLineTable &t, Addr line, std::uint32_t v) { t.put(line, v); }
void tablePut(NodeLineTable &t, Addr line, std::uint32_t v) { t[line] = v; }

/**
 * The MSHR table's access mix: every step looks a line up (a merge
 * check), starts a fill when it is absent, and completes the oldest
 * of up to 16 in-flight fills to make room.
 */
template <typename Table>
void
lineTableChurn(benchmark::State &state)
{
    Table table;
    std::array<Addr, 16> live{};
    std::size_t head = 0;
    std::size_t count = 0;
    std::uint32_t next = 0;
    Rng rng(9);
    for (auto _ : state) {
        Addr line = 0x10000000 + rng.below(256) * 64;
        bool hit = tableHas(table, line);
        benchmark::DoNotOptimize(hit);
        if (hit)
            continue;
        if (count == live.size()) {
            table.erase(live[head]);
            head = (head + 1) % live.size();
            --count;
        }
        tablePut(table, line, next++);
        live[(head + count) % live.size()] = line;
        ++count;
    }
}

void
BM_LineMapChurn(benchmark::State &state)
{
    lineTableChurn<FlatLineTable>(state);
}
BENCHMARK(BM_LineMapChurn);

void
BM_UnorderedMapChurn(benchmark::State &state)
{
    lineTableChurn<NodeLineTable>(state);
}
BENCHMARK(BM_UnorderedMapChurn);

void
BM_GshareUpdate(benchmark::State &state)
{
    GsharePredictor g(64u << 10);
    Rng rng(5);
    for (auto _ : state) {
        Addr pc = 0x10000000 + rng.below(4096) * 4;
        g.update(pc, rng.chance(0.6));
    }
}
BENCHMARK(BM_GshareUpdate);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(262144, 1.3);
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

/** Reference: std::lower_bound over the whole CDF, no guide table. */
void
BM_ZipfSampleLowerBound(benchmark::State &state)
{
    std::vector<double> cdf(262144);
    double sum = 0.0;
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.3);
        cdf[i] = sum;
    }
    for (auto &v : cdf)
        v /= sum;
    cdf.back() = 1.0;
    Rng rng(6);
    for (auto _ : state) {
        auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
        benchmark::DoNotOptimize(it);
    }
}
BENCHMARK(BM_ZipfSampleLowerBound);

/** One 512-record nextBatch pull (a core's fetch block) per
 *  iteration, over preset kind range(0). */
void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto wl = makeWorkload(static_cast<WorkloadKind>(state.range(0)), 0);
    std::vector<InstrRecord> block(512);
    for (auto _ : state) {
        wl->nextBatch(block);
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_WorkloadGeneration)->DenseRange(0, 3);

/** Reference: the same 512 records, one scalar next() at a time. */
void
BM_WorkloadGenerationScalar(benchmark::State &state)
{
    auto wl = makeWorkload(static_cast<WorkloadKind>(state.range(0)), 0);
    std::vector<InstrRecord> block(512);
    for (auto _ : state) {
        for (InstrRecord &rec : block)
            wl->Workload::next(rec);
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_WorkloadGenerationScalar)->DenseRange(0, 3);

/** Heap bytes allocated and not yet freed, mmap-ed chunks included. */
std::size_t
heapInUse()
{
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

/** Heap held by preset range(0)'s static program: blocks, functions,
 *  instruction slots and indirect tables (the hot-data Zipf CDF is
 *  built on first use and not counted). */
void
BM_ProgramImageBytes(benchmark::State &state)
{
    const WorkloadConfig cfg =
        presetConfig(static_cast<WorkloadKind>(state.range(0)));
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::size_t before = heapInUse();
        ProgramCfg prog(cfg);
        bytes = heapInUse() - before;
        benchmark::DoNotOptimize(prog.blocks().data());
    }
    state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ProgramImageBytes)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

/** Heap held by one DB System of scheme @p token on @p cores cores,
 *  not counting the programs and other state that the first System
 *  of a process builds and later ones share. */
void
BM_SystemHeapBytes(benchmark::State &state, const std::string &token,
                   bool cmp)
{
    const SystemConfig cfg = makeConfig(RunSpec::builder()
                                            .workload(WorkloadKind::DB)
                                            .scheme(token)
                                            .cmp(cmp)
                                            .instrScale(0.01)
                                            .build());
    { System warm(cfg); }
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::size_t before = heapInUse();
        System sys(cfg);
        bytes = heapInUse() - before;
        benchmark::DoNotOptimize(&sys);
    }
    state.counters["bytes"] = static_cast<double>(bytes);
}

} // namespace

int
main(int argc, char **argv)
{
    for (const SchemeDescriptor *d : SchemeRegistry::instance().all())
        for (bool cmp : {false, true})
            benchmark::RegisterBenchmark(
                ("BM_SystemHeapBytes/" + d->token + (cmp ? "/4" : "/1"))
                    .c_str(),
                BM_SystemHeapBytes, d->token, cmp)
                ->Unit(benchmark::kMicrosecond);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
