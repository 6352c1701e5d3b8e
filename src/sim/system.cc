#include "sim/system.hh"

#include <algorithm>
#include <chrono>

#include "prefetch/fetch_profiler.hh"
#include "sim/campaign.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_v3.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/stats.hh"
#include "util/trace_event.hh"

namespace ipref
{

namespace
{

/**
 * Publishing stride for the live telemetry counters: coarse enough
 * that the run loops see one predictable branch per iteration and an
 * atomic add only every ~16k instructions, fine enough that ipref_top
 * sampling at tens of milliseconds still tracks real progress. The
 * publish bounds every check-free stretch of the run loops, so a
 * RunControl is polled at least this often too.
 */
constexpr std::uint64_t kMetricsStride = 16384;

/** Process-wide simulation telemetry, summed across concurrent runs. */
struct SystemMetricRefs
{
    metrics::Counter &instructions;
    metrics::Counter &warmupInstructions;
    metrics::Counter &measureInstructions;
    metrics::Counter &runsStarted;
    metrics::Counter &runsFinished;
    metrics::Counter &measureBegins;
    metrics::Gauge &activeRuns;
    metrics::Counter &prefetchIssued;
    metrics::Counter &prefetchUseful;
    metrics::Counter &prefetchUseless;
    metrics::Gauge &prefetchInFlight;
};

SystemMetricRefs &
systemMetrics()
{
    static SystemMetricRefs refs{
        metrics::registry().counter("ipref_sim_instructions_total",
                                    "instructions simulated (all "
                                    "phases, all runs)"),
        metrics::registry().counter(
            "ipref_sim_warmup_instructions_total",
            "instructions simulated during warm-up"),
        metrics::registry().counter(
            "ipref_sim_measure_instructions_total",
            "instructions simulated during measurement"),
        metrics::registry().counter("ipref_sim_runs_started_total",
                                    "System::run() invocations"),
        metrics::registry().counter(
            "ipref_sim_runs_finished_total",
            "System::run() exits (including failures)"),
        metrics::registry().counter(
            "ipref_sim_measure_begin_total",
            "warm-up/measurement boundary crossings"),
        metrics::registry().gauge("ipref_sim_active_runs",
                                  "System::run() calls in flight"),
        metrics::registry().counter("ipref_prefetch_issued_total",
                                    "prefetch fills started"),
        metrics::registry().counter(
            "ipref_prefetch_useful_total",
            "prefetched lines credited at first use"),
        metrics::registry().counter(
            "ipref_prefetch_useless_total",
            "prefetched lines evicted without use"),
        metrics::registry().gauge(
            "ipref_prefetch_in_flight",
            "issued, not yet used / evicted / replaced"),
    };
    return refs;
}

/**
 * Process-wide CPI-stack telemetry: one monotonic cycle counter per
 * bucket, summed across all cores of all concurrent timing runs, so
 * ipref_top can render a live stall breakdown.
 */
std::array<metrics::Counter *, kNumCycleBuckets> &
cpiMetrics()
{
    static std::array<metrics::Counter *, kNumCycleBuckets> refs =
        [] {
            std::array<metrics::Counter *, kNumCycleBuckets> r{};
            for (std::size_t i = 0; i < kNumCycleBuckets; ++i)
                r[i] = &metrics::registry().counter(
                    std::string("ipref_cpi_") +
                        cycleBucketName(static_cast<CycleBucket>(i)) +
                        "_cycles_total",
                    "core cycles charged to this CPI bucket");
            return r;
        }();
    return refs;
}

} // namespace

std::string
SystemConfig::workloadSetName() const
{
    if (trace.enabled())
        return "trace";
    if (workloads.empty())
        return "none";
    if (workloads.size() > 1)
        return "Mixed";
    return workloadName(workloads[0]);
}

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    if (cfg_.numCores == 0)
        ipref_raise(ConfigError, "numCores must be >= 1");
    const TraceSpec &trace = cfg_.trace;
    if (cfg_.workloads.empty() && !trace.enabled())
        ipref_raise(ConfigError, "no workloads configured");
    if (!trace.enabled() && cfg_.workloads.size() != 1 &&
        cfg_.workloads.size() != cfg_.numCores && cfg_.numCores != 1)
        ipref_raise(ConfigError,
                    "workload list must have 1 entry, numCores "
                    "entries, or run on a single core (time-sliced)");

    cfg_.hierarchy.numCores = cfg_.numCores;
    if (cfg_.functional)
        cfg_.hierarchy.makeFunctional();
    cfg_.prefetch.lineBytes = cfg_.hierarchy.l1i.lineBytes;

    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy);

    // Instruction sources: either a replayed trace file (per-core
    // cursors over one shared decode, or per-core streaming readers)
    // or synthetic workload walkers.
    if (trace.enabled()) {
        TraceReadMode mode = trace.tolerant ? TraceReadMode::Tolerant
                                            : TraceReadMode::Strict;
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            std::unique_ptr<TraceSource> reader;
            if (trace.shared) {
                reader = std::make_unique<CachedTraceSource>(
                    TraceCache::instance().acquire(trace.path, mode));
            } else {
                reader = openTraceReader(trace.path, mode);
            }
            if (trace.loop) {
                traceSources_.push_back(
                    std::make_unique<LoopingTraceSource>(*reader));
                traceReaders_.push_back(std::move(reader));
            } else {
                traceSources_.push_back(std::move(reader));
            }
        }
    } else if (cfg_.numCores == 1 && cfg_.workloads.size() > 1) {
        // Time-sliced mixed on one core: one walker per application.
        for (std::size_t i = 0; i < cfg_.workloads.size(); ++i)
            workloads_.push_back(makeWorkload(
                cfg_.workloads[i], static_cast<CoreId>(i),
                cfg_.baseSeed));
    } else {
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            WorkloadKind kind = cfg_.workloads.size() == 1
                                    ? cfg_.workloads[0]
                                    : cfg_.workloads[c];
            workloads_.push_back(
                makeWorkload(kind, c, cfg_.baseSeed));
        }
    }

    for (unsigned c = 0; c < cfg_.numCores; ++c)
        engines_.push_back(std::make_unique<PrefetchEngine>(
            cfg_.prefetch, c, *hierarchy_));

    // Chip-wide per-site attribution (optional; one-branch overhead
    // in the engines when off).
    if (cfg_.profileSites > 0) {
        profiler_ = std::make_unique<FetchProfiler>(cfg_.profileSites);
        for (auto &e : engines_)
            e->setProfiler(profiler_.get());
    }

    // Private event ring: keeps concurrent runs off the global sink
    // (installed as the thread's current sink during run()).
    if (cfg_.traceCapacity > 0) {
        traceSink_ = std::make_unique<TraceSink>();
        traceSink_->enable(cfg_.traceCapacity);
    }

    // Core c starts on walker/reader c; a single time-sliced core
    // starts on slice 0 and rotates during run().
    auto sourceFor = [this](unsigned c) -> TraceSource * {
        return traceSources_.empty() ? workloads_[c].get()
                                     : traceSources_[c].get();
    };
    // Time-sliced runs swap the active source mid-run; batching would
    // pull records past the slice boundary from the wrong stream, so
    // they keep the scalar record-at-a-time pull.
    const bool sliced = cfg_.numCores == 1 && workloads_.size() > 1;
    const unsigned blockRecs =
        sliced ? 1u : std::max(1u, cfg_.core.fetchBlockRecords);
    if (cfg_.functional) {
        funcState_.resize(cfg_.numCores);
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            funcState_[c].trace = sourceFor(c);
            funcState_[c].block.resize(blockRecs);
        }
    } else {
        CoreParams cp = cfg_.core;
        cp.fetchBlockRecords = blockRecs;
        for (unsigned c = 0; c < cfg_.numCores; ++c)
            cores_.push_back(std::make_unique<OoOCore>(
                c, cp, *hierarchy_, *engines_[c],
                sourceFor(c)));
    }

    // Persistent stats tree: built once, reused by dumps, reset at
    // the warm-up/measure boundary.
    statsRoot_ = std::make_unique<StatGroup>("system");
    auto hier = std::make_unique<StatGroup>("hierarchy");
    hierarchy_->registerStats(*hier);
    hierarchy_->memory().registerStats(*hier);
    statsRoot_->addChild(hier.get());
    statGroups_.push_back(std::move(hier));
    for (std::size_t c = 0; c < engines_.size(); ++c) {
        auto g = std::make_unique<StatGroup>(
            "prefetch." + std::to_string(c));
        engines_[c]->registerStats(*g);
        statsRoot_->addChild(g.get());
        statGroups_.push_back(std::move(g));
    }
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        auto g = std::make_unique<StatGroup>(
            "core." + std::to_string(c));
        cores_[c]->registerStats(*g);
        statsRoot_->addChild(g.get());
        statGroups_.push_back(std::move(g));
    }
    if (profiler_) {
        auto g = std::make_unique<StatGroup>("profiler");
        profiler_->registerStats(*g);
        statsRoot_->addChild(g.get());
        statGroups_.push_back(std::move(g));
    }
}

System::~System() = default;

void
System::checkControl(std::uint64_t p) const
{
    if (cfg_.faultAtInstr && p >= cfg_.faultAtInstr)
        throw SimError(cfg_.faultTransient ? SimError::Kind::Io
                                           : SimError::Kind::Invariant,
                       detail::formatMessage(
                           "injected fault at instruction %llu",
                           static_cast<unsigned long long>(p)),
                       cfg_.faultTransient);
    if (!cfg_.control)
        return;
    int s = cfg_.control->stop.load(std::memory_order_relaxed);
    if (s == RunControl::stopTimeout)
        throw SimError(SimError::Kind::Timeout,
                       "run exceeded its deadline");
    if (s == RunControl::stopInterrupt)
        throw SimError(SimError::Kind::Interrupted,
                       "run interrupted");
}

std::uint64_t
System::nextCheckAt(std::uint64_t p, std::uint64_t targetInstrs) const
{
    std::uint64_t next = targetInstrs;
    if (cfg_.statsIntervalInstrs > 0 && nextSampleAt_ > 0)
        next = std::min(next, nextSampleAt_);
    next = std::min(next, metricsNextAt_);
    if (cfg_.faultAtInstr)
        next = std::min(next, cfg_.faultAtInstr);
    if (cfg_.numCores == 1 && workloads_.size() > 1) // slice rotation
        next = std::min(next, std::max(p + 1, sliceStart_ +
                                                  cfg_.timeSliceInstrs));
    return next;
}

std::uint64_t
System::progress() const
{
    std::uint64_t total = 0;
    if (cfg_.functional) {
        for (const auto &st : funcState_)
            total += st.emitted;
    } else {
        for (const auto &core : cores_)
            total += core->committed();
    }
    return total;
}

void
System::publishProgressMetrics(std::uint64_t p)
{
    SystemMetricRefs &m = systemMetrics();
    std::uint64_t delta = p - metricsLastProgress_;
    if (delta) {
        m.instructions.add(delta);
        (metricsInMeasure_ ? m.measureInstructions
                           : m.warmupInstructions)
            .add(delta);
    }
    metricsLastProgress_ = p;
    metricsNextAt_ = p + kMetricsStride;

    // CPI-stack deltas ride the same stride. The cursor only moves
    // forward here; the warm-up/measure boundary re-syncs it after
    // the ledger counters reset (see beginMeasurement()).
    if (!cores_.empty()) {
        auto &cm = cpiMetrics();
        for (std::size_t i = 0; i < kNumCycleBuckets; ++i) {
            std::uint64_t cur = 0;
            for (const auto &core : cores_)
                cur += core->ledger().value(
                    static_cast<CycleBucket>(i));
            if (cur > metricsLastStack_[i])
                cm[i]->add(cur - metricsLastStack_[i]);
            metricsLastStack_[i] = cur;
        }
    }

    // So do the prefetch lifecycle deltas: the engines' StatGroup
    // counters are the only count of these events. The in-flight
    // gauge follows the live lifecycle records, which the boundary
    // reset leaves alone.
    PrefetchEngine::Lifecycle cur;
    for (const auto &engine : engines_) {
        PrefetchEngine::Lifecycle lc = engine->lifecycle();
        cur.issued += lc.issued;
        cur.useful += lc.useful;
        cur.useless += lc.useless;
        cur.inFlight += lc.inFlight;
    }
    PrefetchEngine::Lifecycle &last = metricsLastPrefetch_;
    m.prefetchIssued.add(cur.issued - last.issued);
    m.prefetchUseful.add(cur.useful - last.useful);
    m.prefetchUseless.add(cur.useless - last.useless);
    m.prefetchInFlight.add(static_cast<std::int64_t>(cur.inFlight) -
                           static_cast<std::int64_t>(last.inFlight));
    last = cur;
}

void
System::maybeSample(std::uint64_t p)
{
    while (p >= nextSampleAt_) {
        pushSample(collect());
        nextSampleAt_ += cfg_.statsIntervalInstrs;
    }
}

void
System::pushSample(const SimResults &cur)
{
    samples_.push_back({cur.instructions,
                        SimResults::delta(cur, lastSample_)});
    lastSample_ = cur;
}

void
System::runTiming(std::uint64_t targetInstrs)
{
    const bool sliced = cfg_.numCores == 1 && workloads_.size() > 1;
    const Cycle guard =
        now_ + 1000 + 400 * (targetInstrs - std::min(targetInstrs,
                                                     progress()));
    // Progress grows by at most this much per cycle, which bounds how
    // many cycles can run before the next threshold check could fire.
    const std::uint64_t maxStep = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(cfg_.numCores) *
               cfg_.core.commitWidth);
    // Each core sleeps until its own wake cycle; charged[c] is the
    // first cycle not yet accounted for on core c. Every core is
    // settled (charged up to now_) between calls.
    const std::size_t nc = cores_.size();
    std::vector<Cycle> wake(nc), charged(nc, now_);
    for (std::size_t c = 0; c < nc; ++c)
        wake[c] = cores_[c]->wakeAt(now_);
    while (true) {
        // Settle sleeping cores first: everything below reads the
        // cycle ledgers, and the caller may reset them.
        for (std::size_t c = 0; c < nc; ++c) {
            cores_[c]->skipQuiet(charged[c], now_);
            charged[c] = now_;
        }
        if (now_ > guard)
            ipref_raise(InvariantError,
                        "timing simulation is not making "
                        "progress (IPC < 0.0025)");
        std::uint64_t p = progress();
        if (p >= targetInstrs)
            break;
        checkControl(p);
        if (cfg_.statsIntervalInstrs > 0 && nextSampleAt_ > 0)
            maybeSample(p);
        if (p >= metricsNextAt_)
            publishProgressMetrics(p);

        // Run check-free until progress could reach the nearest
        // threshold: the skipped per-cycle checks are provably
        // no-ops. Within the stretch, tick each core only at its wake
        // cycle, in core order, and jump straight over cycles where
        // every core sleeps.
        const Cycle end = std::min(
            now_ + (nextCheckAt(p, targetInstrs) - p - 1) / maxStep + 1,
            guard + 1);
        while (true) {
            const Cycle t = *std::min_element(wake.begin(), wake.end());
            if (t >= end) {
                now_ = end;
                break;
            }
            for (std::size_t c = 0; c < nc; ++c) {
                if (wake[c] != t)
                    continue;
                OoOCore &core = *cores_[c];
                core.skipQuiet(charged[c], t);
                core.tick(t);
                charged[c] = t + 1;
                wake[c] = core.wakeAt(t + 1);
            }
            now_ = t + 1;
        }
        if (sliced) {
            std::uint64_t done = cores_[0]->committed();
            if (done - sliceStart_ >= cfg_.timeSliceInstrs) {
                activeSlice_ =
                    (activeSlice_ + 1) % workloads_.size();
                cores_[0]->setTrace(workloads_[activeSlice_].get());
                sliceStart_ = done;
            }
        }
    }
}

void
System::refillFuncBlock(FuncState &st)
{
    st.len = static_cast<std::uint32_t>(st.trace->nextBatch(
        {st.block.data(), st.block.size()}));
    st.pos = 0;
    if (st.len == 0)
        throw TraceError("instruction stream ended unexpectedly",
                         {cfg_.trace.path, 0, st.emitted,
                          0});
}

void
System::funcStep(unsigned c, FuncState &st, const InstrRecord &rec)
{
    Addr line = hierarchy_->lineOf(rec.pc);
    bool line_access = line != st.curLine;
    if (line_access) {
        FetchTransition tr = st.havePrev
                                 ? st.prev.transitionType()
                                 : FetchTransition::Sequential;
        FetchResult res =
            hierarchy_->fetchAccess(c, rec.pc, tr, now_);
        DemandFetchEvent ev;
        ev.lineAddr = line;
        ev.prevLineAddr = st.curLine;
        ev.transition = tr;
        ev.now = now_;
        ev.miss = res.l1Miss;
        ev.firstUseOfPrefetch = res.firstUseOfPrefetch;
        ev.latePrefetchHit = res.latePrefetchHit;
        engines_[c]->onDemandFetch(ev);
        st.curLine = line;
    }
    if (rec.isMem())
        hierarchy_->dataAccess(c, rec.dataAddr,
                               rec.op == OpClass::Store, now_);
    if (engines_[c]->wantsFunctionEvents() &&
        (rec.op == OpClass::Call || rec.op == OpClass::Jump ||
         rec.op == OpClass::Return)) {
        FunctionEvent fe;
        fe.isReturn = rec.op == OpClass::Return;
        fe.sitePc = rec.pc;
        fe.target = rec.target;
        engines_[c]->onFunction(fe);
    }
    if (engines_[c]->wantsBranchEvents() &&
        rec.op == OpClass::CondBranch) {
        BranchEvent be;
        be.branchPc = rec.pc;
        be.takenTarget = rec.target;
        be.fallthrough = rec.pc + instrBytes;
        be.taken = rec.taken;
        engines_[c]->onBranch(be);
    }
    engines_[c]->tick(now_, !line_access);
    st.prev = rec;
    st.havePrev = true;
    ++st.emitted;
}

void
System::runFunctional(std::uint64_t targetInstrs)
{
    const bool sliced = cfg_.numCores == 1 && workloads_.size() > 1;
    const unsigned nc = cfg_.numCores;
    while (true) {
        std::uint64_t p = progress();
        if (p >= targetInstrs)
            break;
        checkControl(p);
        if (cfg_.statsIntervalInstrs > 0 && nextSampleAt_ > 0)
            maybeSample(p);
        if (p >= metricsNextAt_)
            publishProgressMetrics(p);

        // Each round emits exactly one instruction per core in
        // round-robin order (the shared-L2 interleaving the schemes
        // see). Run as many rounds as the buffered blocks allow
        // before the next threshold check could fire; the skipped
        // per-round checks are provably no-ops.
        std::uint64_t rounds =
            (nextCheckAt(p, targetInstrs) - p - 1) / nc + 1;
        for (unsigned c = 0; c < nc; ++c) {
            FuncState &st = funcState_[c];
            if (st.pos == st.len)
                refillFuncBlock(st);
            rounds = std::min(
                rounds,
                static_cast<std::uint64_t>(st.len - st.pos));
        }
        for (std::uint64_t r = 0; r < rounds; ++r) {
            for (unsigned c = 0; c < nc; ++c) {
                FuncState &st = funcState_[c];
                funcStep(c, st, st.block[st.pos]);
                ++st.pos;
            }
            ++now_;
        }
        if (sliced) {
            FuncState &st = funcState_[0];
            if (st.emitted - sliceStart_ >= cfg_.timeSliceInstrs) {
                activeSlice_ =
                    (activeSlice_ + 1) % workloads_.size();
                st.trace = workloads_[activeSlice_].get();
                sliceStart_ = st.emitted;
            }
        }
    }
}

SimResults
System::collect() const
{
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

    r.memReads = hierarchy_->memory().reads.value();
    r.memPrefetchReads =
        hierarchy_->memory().prefetchReads.value();
    r.memWrites = hierarchy_->memory().writes.value();
    r.memQueueDelayCycles =
        hierarchy_->memory().queueDelayCycles.value();

    for (const auto &core : cores_) {
        r.branchCtis += core->predictor().ctis.value();
        r.branchMispredicts +=
            core->predictor().mispredicts.value();
        for (std::size_t i = 0; i < kNumCycleBuckets; ++i)
            r.cpiStack[i] +=
                core->ledger().value(static_cast<CycleBucket>(i));
    }
    return r;
}

TraceSink &
System::activeTraceSink() const
{
    return traceSink_ ? *traceSink_ : TraceSink::current();
}

void
System::beginMeasurement()
{
    // Flush the warm-up remainder to the live phase counters before
    // anything resets: in timing mode resetAll() clears the per-core
    // committed counters progress() reads, and the publish delta
    // must never see progress move backward.
    publishProgressMetrics(progress());

    // Counters restart from zero (collect() then reads measurement
    // deltas directly — no hand-kept start snapshot).
    statsRoot_->resetAll();
    // Align the event trace with the counters: the retained ring
    // covers the measurement window only, so offline analysis of the
    // trace is directly comparable to the reported counters.
    if (activeTraceSink().enabled())
        activeTraceSink().clear();
    measureInstrBase_ = progress();
    measureCycleBase_ = now_;
    if (!cfg_.functional && !cores_.empty())
        sliceStart_ = cores_[0]->committed();

    // Cycle accounting restarts with the reset ledgers: open stall
    // episodes forget their pre-boundary cycles (the sink was just
    // cleared) and the live-metrics cursors re-sync at zero. The
    // in-flight cursor stays: the lifecycle records survive the reset.
    for (auto &core : cores_)
        core->onMeasureBegin();
    metricsLastStack_.fill(0);
    metricsLastPrefetch_ = {.inFlight = metricsLastPrefetch_.inFlight};

    samples_.clear();
    lastSample_ = SimResults{};
    nextSampleAt_ = cfg_.statsIntervalInstrs > 0
                        ? measureInstrBase_ + cfg_.statsIntervalInstrs
                        : 0;

    // Re-sync the publish cursor with the post-reset progress value,
    // then attribute what follows to the measurement phase.
    metricsLastProgress_ = progress();
    metricsNextAt_ = metricsLastProgress_ + kMetricsStride;
    metricsInMeasure_ = true;
    systemMetrics().measureBegins.add(1);
}

SimResults
System::run()
{
    // Route IPREF_TRACE sites on this thread into the owned sink (if
    // any) for the duration of the run.
    TraceSinkScope traceScope(traceSink_.get());

    // Live run accounting, exception-safe: a run that throws (fault
    // injection, cancellation, trace damage) still flushes its final
    // deltas and takes itself back out of the active-runs and
    // prefetch in-flight gauges.
    systemMetrics().runsStarted.add(1);
    systemMetrics().activeRuns.add(1);
    metricsInMeasure_ = false;
    struct MetricsRunScope
    {
        System &sys;
        ~MetricsRunScope()
        {
            sys.publishProgressMetrics(sys.progress());
            SystemMetricRefs &m = systemMetrics();
            m.runsFinished.add(1);
            m.activeRuns.sub(1);
            m.prefetchInFlight.sub(static_cast<std::int64_t>(
                sys.metricsLastPrefetch_.inFlight));
            sys.metricsLastPrefetch_.inFlight = 0;
        }
    } metricsScope{*this};

    using clock = std::chrono::steady_clock;
    auto seconds = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };

    auto t0 = clock::now();
    if (cfg_.warmupInstrs > 0) {
        std::uint64_t target = progress() + cfg_.warmupInstrs;
        if (cfg_.functional)
            runFunctional(target);
        else
            runTiming(target);
    }
    auto t1 = clock::now();
    profile_.warmupSeconds = seconds(t0, t1);
    profile_.warmupInstructions = progress();

    beginMeasurement();
    std::uint64_t target = progress() + cfg_.measureInstrs;
    if (cfg_.functional)
        runFunctional(target);
    else
        runTiming(target);
    auto t2 = clock::now();

    // Flush the trailing stall episode on every core so the traced
    // fetch_stall events account for every charged cycle.
    for (auto &core : cores_)
        core->finishAccounting(now_);

    results_ = collect();
    results_.deriveIpc();

    // Conservation invariant: in timing mode every core charges every
    // measurement cycle to exactly one bucket, so each ledger totals
    // the cycle count and the aggregate stack totals cycles * cores.
    if (!cfg_.functional) {
        for (const auto &core : cores_) {
            std::uint64_t total = core->ledger().total();
            if (total != results_.cycles)
                ipref_raise(
                    InvariantError,
                    "CPI stack does not conserve cycles: core %u "
                    "charged %llu of %llu measurement cycles",
                    static_cast<unsigned>(core->id()),
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(results_.cycles));
        }
        std::uint64_t want =
            results_.cycles * static_cast<std::uint64_t>(cfg_.numCores);
        if (results_.cpiStackTotal() != want)
            ipref_raise(
                InvariantError,
                "CPI stack does not conserve cycles: aggregate %llu "
                "!= cycles * cores = %llu",
                static_cast<unsigned long long>(
                    results_.cpiStackTotal()),
                static_cast<unsigned long long>(want));
    }
    profile_.measureSeconds = seconds(t1, t2);
    profile_.measureInstructions = results_.instructions;

    // Close the trailing partial interval so sample deltas cover the
    // whole measurement window.
    if (cfg_.statsIntervalInstrs > 0 &&
        (samples_.empty() ||
         lastSample_.instructions < results_.instructions))
        pushSample(results_);
    return results_;
}

TimelinessSummary
System::timeliness() const
{
    // Merge per-engine histograms bucket-wise for chip-level
    // quantiles (same bucket-boundary estimate as
    // Log2Histogram::quantile).
    std::vector<std::uint64_t> buckets;
    std::uint64_t sum = 0;
    TimelinessSummary t;
    for (const auto &e : engines_) {
        const Log2Histogram &h = e->issueToUseLatency();
        if (h.buckets().size() > buckets.size())
            buckets.resize(h.buckets().size(), 0);
        for (std::size_t b = 0; b < h.buckets().size(); ++b)
            buckets[b] += h.buckets()[b];
        t.count += h.count();
        sum += h.sum();
        t.maxCycles = std::max(t.maxCycles, h.max());
    }
    if (t.count == 0)
        return t;
    t.meanCycles =
        static_cast<double>(sum) / static_cast<double>(t.count);
    auto quantile = [&](double q) -> std::uint64_t {
        std::uint64_t target = static_cast<std::uint64_t>(
            q * static_cast<double>(t.count));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            seen += buckets[i];
            if (seen > target)
                return i == 0 ? 1 : (std::uint64_t{1} << i);
        }
        return t.maxCycles;
    };
    t.p50Cycles = quantile(0.5);
    t.p90Cycles = quantile(0.9);
    return t;
}

void
System::dumpStats(std::ostream &os) const
{
    statsRoot_->dump(os);
}

void
System::dumpJson(std::ostream &os) const
{
    os << "{\n";

    // --- configuration ------------------------------------------------
    os << "  \"config\": {\n"
       << "    \"workload\": " << jsonString(cfg_.workloadSetName())
       << ",\n"
       << "    \"cores\": " << cfg_.numCores << ",\n"
       << "    \"scheme\": "
       << jsonString(schemeDisplayName(cfg_.prefetch)) << ",\n"
       << "    \"scheme_token\": "
       << jsonString(cfg_.prefetch.effectiveToken()) << ",\n"
       << "    \"scheme_knobs\": "
       << jsonString(cfg_.prefetch.schemeKnobs) << ",\n"
       << "    \"degree\": " << cfg_.prefetch.degree << ",\n"
       << "    \"bypass_l2\": "
       << (cfg_.hierarchy.prefetchBypassL2 ? "true" : "false") << ",\n"
       << "    \"functional\": "
       << (cfg_.functional ? "true" : "false") << ",\n"
       << "    \"warmup_instrs\": " << cfg_.warmupInstrs << ",\n"
       << "    \"measure_instrs\": " << cfg_.measureInstrs << ",\n"
       << "    \"stats_interval_instrs\": " << cfg_.statsIntervalInstrs
       << ",\n"
       << "    \"profile_sites\": " << cfg_.profileSites << ",\n"
       << "    \"base_seed\": " << cfg_.baseSeed << "\n"
       << "  },\n";

    // --- counters: the campaign's SimResults form ---------------------
    os << "  \"results\": " << resultsToJson(results_) << ",\n";

    // --- engine state SimResults does not carry -----------------------
    TimelinessSummary t = timeliness();
    std::uint64_t inFlight = 0, dropped = 0, uncredited = 0;
    for (const auto &e : engines_) {
        inFlight += e->liveUnresolved();
        dropped += e->replacedInFlight.value();
        uncredited += e->uncreditedUseful.value();
    }
    os << "  \"prefetch\": {\"uncredited_useful\": " << uncredited
       << ", \"in_flight\": " << inFlight << ", \"dropped\": " << dropped
       << ",\n    \"timeliness\": {\"count\": " << t.count
       << ", \"mean_cycles\": " << jsonNumber(t.meanCycles)
       << ", \"p50_cycles\": " << t.p50Cycles
       << ", \"p90_cycles\": " << t.p90Cycles
       << ", \"max_cycles\": " << t.maxCycles << "}},\n";

    // --- interval samples --------------------------------------------
    os << "  \"intervals\": [";
    for (std::size_t i = 0; i < samples_.size(); ++i)
        os << (i ? ",\n" : "\n") << "    {\"end_instructions\": "
           << samples_[i].endInstructions << ", \"results\": "
           << resultsToJson(samples_[i].delta) << "}";
    os << (samples_.empty() ? "" : "\n  ") << "],\n";

    // --- phase profile -----------------------------------------------
    os << "  \"profile\": {\n"
       << "    \"warmup_seconds\": "
       << jsonNumber(profile_.warmupSeconds) << ",\n"
       << "    \"measure_seconds\": "
       << jsonNumber(profile_.measureSeconds) << ",\n"
       << "    \"warmup_instructions\": "
       << profile_.warmupInstructions << ",\n"
       << "    \"measure_instructions\": "
       << profile_.measureInstructions << ",\n"
       << "    \"measure_instrs_per_sec\": "
       << jsonNumber(profile_.measureInstrsPerSec()) << "\n"
       << "  },\n";

    // --- per-site heavy-hitter attribution (when enabled) -------------
    if (profiler_) {
        os << "  \"profiler\": ";
        profiler_->dumpJson(os);
        os << ",\n";
    }

    // --- tracing summary (only meaningful when enabled) ---------------
    const TraceSink &sink = activeTraceSink();
    os << "  \"trace\": {\"enabled\": "
       << (sink.enabled() ? "true" : "false")
       << ", \"recorded\": " << sink.recorded()
       << ", \"dropped\": " << sink.dropped() << "},\n";

    // --- full stats tree ---------------------------------------------
    os << "  \"stats\": ";
    statsRoot_->dumpJson(os, 2);
    os << "\n}\n";
}

} // namespace ipref
