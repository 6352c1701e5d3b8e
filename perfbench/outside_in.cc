#include "outside_in.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "prefetch/engine.hh"
#include "sim/system.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_v3.hh"
#include "util/error.hh"
#include "workload/workload.hh"

using namespace ipref;

namespace perfbench
{

namespace
{

/** A TraceSource that times every pull from the source it wraps. */
class TimedSource final : public TraceSource
{
  public:
    TimedSource(TraceSource &inner, CallTimer &timer,
                std::uint64_t &records)
        : inner_(inner), timer_(timer), records_(records)
    {}

    bool
    next(InstrRecord &out) override
    {
        std::int64_t t0 = nowNs();
        bool ok = inner_.next(out);
        timer_.add(nowNs() - t0);
        records_ += ok ? 1 : 0;
        return ok;
    }

    std::size_t
    nextBatch(std::span<InstrRecord> out) override
    {
        std::int64_t t0 = nowNs();
        std::size_t n = inner_.nextBatch(out);
        timer_.add(nowNs() - t0);
        records_ += n;
        return n;
    }

    void reset() override { inner_.reset(); }
    std::uint64_t sizeHint() const override { return inner_.sizeHint(); }

  private:
    TraceSource &inner_;
    CallTimer &timer_;
    std::uint64_t &records_;
};

/**
 * System's functional mode rebuilt from public parts: the same
 * hierarchy, engines and replay sources, stepped by a copy of
 * System::runFunctional()/funcStep() with a timer around every call
 * into the cache and prefetch layers.
 */
class FunctionalDriver
{
  public:
    explicit FunctionalDriver(const SystemConfig &config);

    SimResults run();

    CallTimer input, fetchAccess, dataAccess, onDemandFetch, onEvent,
        tick;
    std::uint64_t records = 0;

  private:
    struct CoreState
    {
        TraceSource *source = nullptr;
        InstrRecord prev;
        bool havePrev = false;
        Addr curLine = invalidAddr;
        std::uint64_t emitted = 0;
        std::vector<InstrRecord> block;
        std::uint32_t pos = 0;
        std::uint32_t len = 0;
    };

    std::uint64_t progress() const;
    void refill(CoreState &st);
    void step(unsigned c, CoreState &st, const InstrRecord &rec);
    void runTo(std::uint64_t target);
    SimResults collect() const;

    SystemConfig cfg_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    std::vector<std::unique_ptr<TraceSource>> readers_;
    std::vector<std::unique_ptr<TraceSource>> sources_;
    std::vector<std::unique_ptr<PrefetchEngine>> engines_;
    std::vector<CoreState> cores_;
    StatGroup stats_{"system"};
    Cycle now_ = 0;
    std::uint64_t measureInstrBase_ = 0;
    Cycle measureCycleBase_ = 0;
};

FunctionalDriver::FunctionalDriver(const SystemConfig &config)
    : cfg_(config)
{
    const TraceSpec trace = cfg_.effectiveTrace();
    if (!cfg_.functional || !trace.enabled())
        ipref_raise(ConfigError, "functional driver: needs a "
                                 "functional trace-replay spec");
    if (cfg_.profileSites || cfg_.traceCapacity ||
        cfg_.statsIntervalInstrs || cfg_.faultAtInstr)
        ipref_raise(ConfigError, "functional driver: observability "
                                 "and fault hooks are not mirrored");

    // Same order and settings as System::System.
    cfg_.hierarchy.numCores = cfg_.numCores;
    cfg_.hierarchy.makeFunctional();
    cfg_.prefetch.lineBytes = cfg_.hierarchy.l1i.lineBytes;
    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy);

    TraceReadMode mode = trace.tolerant ? TraceReadMode::Tolerant
                                        : TraceReadMode::Strict;
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        std::unique_ptr<TraceSource> reader;
        if (trace.shared)
            reader = std::make_unique<CachedTraceSource>(
                TraceCache::instance().acquire(trace.path, mode));
        else
            reader = openTraceReader(trace.path, mode);
        if (trace.loop) {
            sources_.push_back(
                std::make_unique<LoopingTraceSource>(*reader));
            readers_.push_back(std::move(reader));
        } else {
            sources_.push_back(std::move(reader));
        }
    }
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        engines_.push_back(std::make_unique<PrefetchEngine>(
            cfg_.prefetch, c, *hierarchy_));

    cores_.resize(cfg_.numCores);
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        cores_[c].source = sources_[c].get();
        cores_[c].block.resize(std::max(1u, cfg_.core.fetchBlockRecords));
    }

    // Everything System's stats tree resets at the measure boundary.
    hierarchy_->registerStats(stats_);
    hierarchy_->memory().registerStats(stats_);
    for (auto &e : engines_)
        e->registerStats(stats_);
}

std::uint64_t
FunctionalDriver::progress() const
{
    std::uint64_t total = 0;
    for (const CoreState &st : cores_)
        total += st.emitted;
    return total;
}

void
FunctionalDriver::refill(CoreState &st)
{
    std::int64_t t0 = nowNs();
    st.len = static_cast<std::uint32_t>(
        st.source->nextBatch({st.block.data(), st.block.size()}));
    input.add(nowNs() - t0);
    records += st.len;
    st.pos = 0;
    if (st.len == 0)
        throw TraceError("instruction stream ended unexpectedly");
}

void
FunctionalDriver::step(unsigned c, CoreState &st, const InstrRecord &rec)
{
    PrefetchEngine &engine = *engines_[c];
    Addr line = hierarchy_->lineOf(rec.pc);
    bool lineAccess = line != st.curLine;
    if (lineAccess) {
        FetchTransition tr = st.havePrev ? st.prev.transitionType()
                                         : FetchTransition::Sequential;
        std::int64_t t0 = nowNs();
        FetchResult res = hierarchy_->fetchAccess(c, rec.pc, tr, now_);
        std::int64_t t1 = nowNs();
        fetchAccess.add(t1 - t0);
        DemandFetchEvent ev;
        ev.lineAddr = line;
        ev.prevLineAddr = st.curLine;
        ev.transition = tr;
        ev.now = now_;
        ev.miss = res.l1Miss;
        ev.firstUseOfPrefetch = res.firstUseOfPrefetch;
        ev.latePrefetchHit = res.latePrefetchHit;
        engine.onDemandFetch(ev);
        onDemandFetch.add(nowNs() - t1);
        st.curLine = line;
    }
    if (rec.isMem()) {
        std::int64_t t0 = nowNs();
        hierarchy_->dataAccess(c, rec.dataAddr, rec.op == OpClass::Store,
                               now_);
        dataAccess.add(nowNs() - t0);
    }
    if (engine.wantsFunctionEvents() &&
        (rec.op == OpClass::Call || rec.op == OpClass::Jump ||
         rec.op == OpClass::Return)) {
        FunctionEvent fe;
        fe.isReturn = rec.op == OpClass::Return;
        fe.sitePc = rec.pc;
        fe.target = rec.target;
        std::int64_t t0 = nowNs();
        engine.onFunction(fe);
        onEvent.add(nowNs() - t0);
    }
    if (engine.wantsBranchEvents() && rec.op == OpClass::CondBranch) {
        BranchEvent be;
        be.branchPc = rec.pc;
        be.takenTarget = rec.target;
        be.fallthrough = rec.pc + instrBytes;
        be.taken = rec.taken;
        std::int64_t t0 = nowNs();
        engine.onBranch(be);
        onEvent.add(nowNs() - t0);
    }
    if (engine.enabled() && !lineAccess && engine.queue().hasWaiting()) {
        std::int64_t t0 = nowNs();
        engine.tick(now_, true);
        tick.add(nowNs() - t0);
    } else {
        engine.tick(now_, !lineAccess); // returns at once
    }
    st.prev = rec;
    st.havePrev = true;
    ++st.emitted;
}

void
FunctionalDriver::runTo(std::uint64_t target)
{
    // One instruction per core per round, round-robin, as in
    // System::runFunctional; chunking rounds by buffered records does
    // not change the stream each core sees.
    const unsigned nc = cfg_.numCores;
    while (true) {
        std::uint64_t p = progress();
        if (p >= target)
            break;
        std::uint64_t rounds = (target - p - 1) / nc + 1;
        for (CoreState &st : cores_) {
            if (st.pos == st.len)
                refill(st);
            rounds = std::min<std::uint64_t>(rounds, st.len - st.pos);
        }
        for (std::uint64_t r = 0; r < rounds; ++r) {
            for (unsigned c = 0; c < nc; ++c) {
                CoreState &st = cores_[c];
                step(c, st, st.block[st.pos]);
                ++st.pos;
            }
            ++now_;
        }
    }
}

SimResults
FunctionalDriver::collect() const
{
    // The hierarchy, engine and memory half of System::collect(); a
    // functional run has no cores, so branch and CPI-stack fields
    // stay zero there too.
    SimResults r;
    r.instructions = progress() - measureInstrBase_;
    r.cycles = now_ - measureCycleBase_;
    const CacheHierarchy &h = *hierarchy_;
    r.fetchLineAccesses = h.fetchLineAccesses.value();
    r.l1iMisses = h.l1iMisses.value();
    r.l1iEliminated = h.l1iEliminated.value();
    r.l1iFirstUseHits = h.l1iFirstUseHits.value();
    r.l1iLateHits = h.l1iLateHits.value();
    r.l2iMisses = h.l2iMisses.value();
    r.l1dAccesses = h.l1dAccesses.value();
    r.l1dMisses = h.l1dMisses.value();
    r.l2dMisses = h.l2dMisses.value();
    for (std::size_t i = 0; i < r.l1iMissByTransition.size(); ++i) {
        r.l1iMissByTransition[i] = h.l1iMissByTransition[i].value();
        r.l2iMissByTransition[i] = h.l2iMissByTransition[i].value();
    }
    r.bypassInstalls = h.bypassInstalls.value();
    r.bypassDrops = h.bypassDrops.value();
    for (const auto &e : engines_) {
        r.pfCandidates += e->candidates.value();
        r.pfIssued += e->issued.value();
        r.pfIssuedOffChip += e->issuedOffChip.value();
        r.pfUseful += e->usefulPrefetches.value();
        r.pfLate += e->latePrefetches.value();
        r.pfUseless += e->uselessPrefetches.value();
        r.pfFiltered += e->filteredRecent.value();
        r.pfTagProbes += e->tagProbes.value();
        r.pfTagProbeHits += e->tagProbeHits.value();
        for (std::size_t i = 0; i < r.pfIssuedByOrigin.size(); ++i) {
            r.pfIssuedByOrigin[i] += e->issuedByOrigin[i].value();
            r.pfUsefulByOrigin[i] += e->usefulByOrigin[i].value();
        }
        MetadataCost meta = e->metadataCost();
        r.pfMetaEntries += meta.entries;
        r.pfMetaBytes += meta.bytes;
        r.pfMetaOffChipReads += meta.offChipReads;
        r.pfMetaOffChipWrites += meta.offChipWrites;
    }
    const MemoryChannel &mem = hierarchy_->memory();
    r.memReads = mem.reads.value();
    r.memPrefetchReads = mem.prefetchReads.value();
    r.memWrites = mem.writes.value();
    r.memQueueDelayCycles = mem.queueDelayCycles.value();
    return r;
}

SimResults
FunctionalDriver::run()
{
    if (cfg_.warmupInstrs > 0)
        runTo(progress() + cfg_.warmupInstrs);
    stats_.resetAll();
    measureInstrBase_ = progress();
    measureCycleBase_ = now_;
    runTo(progress() + cfg_.measureInstrs);
    SimResults r = collect();
    r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    return r;
}

} // namespace

TracedRun
tracedTimingRun(const RunSpec &spec, SpanLog &log, int parent)
{
    SystemConfig cfg = makeConfig(spec);
    if (cfg.functional || cfg.effectiveTrace().enabled())
        ipref_raise(ConfigError, "traced timing run: needs a timing "
                                 "spec with generator input");
    int build = log.open("sim.system_build", parent);
    System system(cfg);
    log.close(build);
    if (system.workloadCount() != cfg.numCores)
        ipref_raise(ConfigError, "traced timing run: a time-sliced "
                                 "core swaps its source mid-run");

    CallTimer input;
    TracedRun out;
    std::vector<std::unique_ptr<TimedSource>> sources;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        sources.push_back(std::make_unique<TimedSource>(
            system.workload(c), input, out.inputRecords));
        system.cpuCore(static_cast<CoreId>(c))
            .setTrace(sources.back().get());
    }
    int tick = log.open("cpu.tick", parent);
    out.results = system.run();
    log.close(tick);
    log.addAggregate("workload.next_batch", tick, input);
    return out;
}

TracedRun
tracedFunctionalRun(const RunSpec &spec, SpanLog &log, int parent)
{
    int build = log.open("sim.system_build", parent);
    FunctionalDriver driver(makeConfig(spec));
    log.close(build);
    int loop = log.open("sim.func_loop", parent);
    TracedRun out;
    out.results = driver.run();
    log.close(loop);
    log.addAggregate("trace.next_batch", loop, driver.input);
    log.addAggregate("cache.fetch_access", loop, driver.fetchAccess);
    log.addAggregate("cache.data_access", loop, driver.dataAccess);
    log.addAggregate("prefetch.on_demand_fetch", loop,
                     driver.onDemandFetch);
    log.addAggregate("prefetch.on_event", loop, driver.onEvent);
    log.addAggregate("prefetch.tick", loop, driver.tick);
    out.inputRecords = driver.records;
    return out;
}

} // namespace perfbench
