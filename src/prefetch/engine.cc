#include "prefetch/engine.hh"

#include "prefetch/fetch_profiler.hh"
#include "util/metrics.hh"
#include "util/trace_event.hh"

namespace ipref
{

namespace
{

/**
 * Process-wide prefetch telemetry, summed across every engine (all
 * cores, all concurrent runs). Per-run attribution stays in the
 * StatGroup counters; these exist so ipref_top can show aggregate
 * issue/useful rates while a campaign executes.
 */
struct EngineMetricRefs
{
    metrics::Counter &issued;
    metrics::Counter &useful;
    metrics::Counter &useless;
    metrics::Gauge &inFlight;
};

EngineMetricRefs &
engineMetrics()
{
    static EngineMetricRefs refs{
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

} // namespace

PrefetchEngine::PrefetchEngine(const PrefetchConfig &cfg, CoreId core,
                               CacheHierarchy &hierarchy)
    : cfg_(cfg),
      core_(core),
      hierarchy_(hierarchy),
      prefetcher_(createPrefetcher(cfg)),
      queue_(cfg.queueSize),
      history_(cfg.historySize)
{
    wrongPath_ = dynamic_cast<WrongPathPrefetcher *>(prefetcher_.get());
    callGraph_ = dynamic_cast<CallGraphPrefetcher *>(prefetcher_.get());
    if (prefetcher_)
        hierarchy_.setEvictionListener(core_, this);
    if (cfg.useConfidenceFilter)
        confidence_ = std::make_unique<ConfidenceFilter>(
            cfg.confidenceEntries, cfg.lineBytes,
            cfg.confidenceThreshold);
}

PrefetchEngine::~PrefetchEngine()
{
    // Lifecycles still unresolved at teardown leave the process-wide
    // in-flight gauge; without this, destroyed runs would pin it high.
    engineMetrics().inFlight.sub(
        static_cast<std::int64_t>(origins_.size()));
}

void
PrefetchEngine::credit(Addr lineAddr, Cycle now)
{
    const LivePrefetch *found = origins_.find(lineAddr);
    if (!found)
        return;
    const LivePrefetch &lp = *found;
    ++usefulPrefetches;
    engineMetrics().useful.add(1);
    ++usefulByOrigin[static_cast<std::size_t>(lp.origin)];
    if (now >= lp.issuedAt)
        issueToUse_.add(now - lp.issuedAt);
    if (lp.origin == PrefetchOrigin::Discontinuity ||
        lp.origin == PrefetchOrigin::Temporal)
        prefetcher_->prefetchUseful(lp.tableIndex);
    IPREF_TRACE(TraceEventType::PrefetchUseful, core_, lineAddr,
                lp.id, static_cast<std::uint8_t>(lp.origin), now,
                lp.trigger);
    if (profiler_)
        profiler_->prefetchResolved(lp.trigger, lineAddr, lp.origin,
                                    true);
    lastCredit_ = {lineAddr, lp.origin, lp.id};
    origins_.erase(lineAddr);
    engineMetrics().inFlight.sub(1);
}

void
PrefetchEngine::notePartialStall(Addr lineAddr, std::uint64_t cycles,
                                 PrefetchOrigin origin)
{
    (void)lineAddr;
    ++partialStallEpisodes;
    partialStallCycles += cycles;
    partialExposed_.add(cycles);
    if (origin != PrefetchOrigin::NumOrigins)
        partialStallByOrigin[static_cast<std::size_t>(origin)] +=
            cycles;
}

void
PrefetchEngine::onDemandFetch(const DemandFetchEvent &event)
{
    // Site attribution is independent of any prefetcher being
    // configured: baseline (scheme none) runs profile misses too.
    if (profiler_ && event.miss)
        profiler_->demandMiss(event.lineAddr, event.transition);

    if (!prefetcher_)
        return;

    history_.push(event.lineAddr);
    std::uint64_t invBefore = queue_.demandInvalidations.value();
    queue_.demandFetched(event.lineAddr);
    if (queue_.demandInvalidations.value() != invBefore)
        IPREF_TRACE(TraceEventType::QueueInvalidate, core_,
                    event.lineAddr, 0, 0, event.now);

    if (event.firstUseOfPrefetch || event.latePrefetchHit) {
        if (event.latePrefetchHit)
            ++latePrefetches;
        credit(event.lineAddr, event.now);
    }

    scratch_.clear();
    prefetcher_->onDemandFetch(event, scratch_);
    enqueueCandidates(event.lineAddr);
}

void
PrefetchEngine::onBranch(const BranchEvent &event)
{
    if (!wrongPath_)
        return;
    scratch_.clear();
    wrongPath_->onBranch(event, scratch_);
    enqueueCandidates(hierarchy_.lineOf(event.branchPc));
}

void
PrefetchEngine::onFunction(const FunctionEvent &event)
{
    if (!callGraph_)
        return;
    scratch_.clear();
    callGraph_->onFunction(event, scratch_);
    enqueueCandidates(hierarchy_.lineOf(event.sitePc));
}

void
PrefetchEngine::enqueueCandidates(Addr defaultTrigger)
{
    candidates += scratch_.size();
    for (auto &cand : scratch_) {
        if (cand.triggerAddr == invalidAddr)
            cand.triggerAddr = defaultTrigger;
        if (history_.contains(cand.lineAddr)) {
            ++filteredRecent;
            continue;
        }
        if (queue_.push(cand) == PrefetchQueue::PushResult::Hoisted)
            IPREF_TRACE(TraceEventType::QueueHoist, core_,
                        cand.lineAddr);
    }
}

void
PrefetchEngine::issueOne(Cycle now)
{
    auto cand = queue_.popForIssue();
    if (!cand)
        return;

    if (confidence_) {
        // Confidence filtering [15]: gate on per-line confidence
        // counters instead of inspecting the cache tags.
        if (!confidence_->confident(cand->lineAddr)) {
            ++confidenceSuppressed;
            IPREF_TRACE(TraceEventType::PrefetchDrop, core_,
                        cand->lineAddr, 0, traceDropConfidence, now);
            return;
        }
    } else {
        // Low-priority tag-port probe: is the line already resident?
        ++tagProbes;
        if (hierarchy_.probeL1I(core_, cand->lineAddr)) {
            ++tagProbeHits;
            IPREF_TRACE(TraceEventType::PrefetchDrop, core_,
                        cand->lineAddr, 0, traceDropTagProbe, now);
            return;
        }
    }

    PrefetchResult res =
        hierarchy_.prefetchRequest(core_, cand->lineAddr, now);
    switch (res.outcome) {
      case PrefetchOutcome::Issued:
      case PrefetchOutcome::Merged: {
        ++issued;
        engineMetrics().issued.add(1);
        ++issuedByOrigin[static_cast<std::size_t>(cand->origin)];
        if (res.fromMemory)
            ++issuedOffChip;
        if (res.ready >= now)
            fillLatency_.add(res.ready - now);
        Addr line = hierarchy_.lineOf(cand->lineAddr);
        if (const LivePrefetch *old = origins_.find(line)) {
            // A previous lifecycle for this line is still unresolved:
            // the new issue supersedes it.
            ++replacedInFlight;
            IPREF_TRACE(TraceEventType::PrefetchReplaced, core_, line,
                        old->id, static_cast<std::uint8_t>(old->origin),
                        now, old->trigger);
            engineMetrics().inFlight.sub(1);
        }
        LivePrefetch lp;
        lp.origin = cand->origin;
        lp.tableIndex = cand->tableIndex;
        lp.id = nextPrefetchId_++;
        lp.issuedAt = now;
        lp.trigger = cand->triggerAddr != invalidAddr
                         ? hierarchy_.lineOf(cand->triggerAddr)
                         : invalidAddr;
        IPREF_TRACE(TraceEventType::PrefetchIssue, core_, line, lp.id,
                    static_cast<std::uint8_t>(cand->origin), now,
                    lp.trigger);
        if (profiler_)
            profiler_->prefetchIssued(lp.trigger, line, lp.origin);
        origins_.put(line, lp);
        engineMetrics().inFlight.add(1);
        break;
      }
      case PrefetchOutcome::DroppedPresent:
        ++tagProbeHits;
        IPREF_TRACE(TraceEventType::PrefetchDrop, core_,
                    cand->lineAddr, 0, traceDropPresent, now);
        // The line was resident after all: the confidence filter
        // learns this prefetch was ineffective.
        if (confidence_)
            confidence_->prefetchIneffective(cand->lineAddr);
        break;
      case PrefetchOutcome::DroppedInFlight:
        ++droppedInFlight;
        IPREF_TRACE(TraceEventType::PrefetchDrop, core_,
                    cand->lineAddr, 0, traceDropInFlight, now);
        break;
    }
}

void
PrefetchEngine::instrLineEvicted(CoreId core, Addr lineAddr)
{
    (void)core;
    if (confidence_)
        confidence_->lineEvicted(lineAddr);
}

void
PrefetchEngine::prefetchedLineEvicted(CoreId core, Addr lineAddr,
                                      bool used)
{
    (void)core;
    const LivePrefetch *found = origins_.find(lineAddr);
    if (!used) {
        ++uselessPrefetches;
        engineMetrics().useless.add(1);
        if (found) {
            const LivePrefetch &lp = *found;
            IPREF_TRACE(TraceEventType::PrefetchUseless, core_,
                        lineAddr, lp.id,
                        static_cast<std::uint8_t>(lp.origin),
                        TraceSink::traceNowHint, lp.trigger);
            if (profiler_)
                profiler_->prefetchResolved(lp.trigger, lineAddr,
                                            lp.origin, false);
            origins_.erase(lineAddr);
            engineMetrics().inFlight.sub(1);
        } else {
            IPREF_TRACE(TraceEventType::PrefetchUseless, core_,
                        lineAddr, 0, 0, TraceSink::traceNowHint);
        }
    } else if (found) {
        // Normally credited (and erased) at first use; the line was
        // used but the use event was not observed — close the
        // lifecycle as useful without a latency sample.
        const LivePrefetch &lp = *found;
        ++uncreditedUseful;
        engineMetrics().useful.add(1);
        ++usefulByOrigin[static_cast<std::size_t>(lp.origin)];
        IPREF_TRACE(TraceEventType::PrefetchUseful, core_, lineAddr,
                    lp.id, static_cast<std::uint8_t>(lp.origin),
                    TraceSink::traceNowHint, lp.trigger);
        if (profiler_)
            profiler_->prefetchResolved(lp.trigger, lineAddr,
                                        lp.origin, true);
        origins_.erase(lineAddr);
        engineMetrics().inFlight.sub(1);
    }
}

PrefetchEngine::Lifecycle
PrefetchEngine::lifecycle() const
{
    Lifecycle lc;
    lc.issued = issued.value();
    lc.useful = usefulPrefetches.value() + uncreditedUseful.value();
    lc.useless = uselessPrefetches.value();
    lc.inFlight = origins_.size();
    lc.dropped = replacedInFlight.value();
    return lc;
}

void
PrefetchEngine::registerStats(StatGroup &group)
{
    group.addCounter("candidates", &candidates);
    group.addCounter("filtered_recent", &filteredRecent);
    group.addCounter("tag_probes", &tagProbes);
    group.addCounter("tag_probe_hits", &tagProbeHits);
    group.addCounter("issued", &issued);
    group.addCounter("issued_offchip", &issuedOffChip);
    group.addCounter("dropped_inflight", &droppedInFlight);
    group.addCounter("confidence_suppressed", &confidenceSuppressed);
    group.addCounter("useful", &usefulPrefetches);
    group.addCounter("late", &latePrefetches);
    group.addCounter("useless", &uselessPrefetches);
    group.addCounter("uncredited_useful", &uncreditedUseful,
                     "evicted used without an observed use");
    group.addCounter("replaced_inflight", &replacedInFlight,
                     "lifecycles superseded by a re-issue");
    group.addCounter("partial_stall_episodes", &partialStallEpisodes,
                     "late prefetches that still stalled fetch");
    group.addCounter("partial_stall_cycles", &partialStallCycles,
                     "miss cycles a late prefetch left exposed");
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(PrefetchOrigin::NumOrigins);
         ++i) {
        std::string origin =
            originName(static_cast<PrefetchOrigin>(i));
        group.addCounter("issued_by." + origin, &issuedByOrigin[i]);
        group.addCounter("useful_by." + origin, &usefulByOrigin[i]);
        group.addCounter("partial_stall_by." + origin,
                         &partialStallByOrigin[i]);
    }
    group.addFormula("accuracy", [this] { return accuracy(); },
                     "useful / issued");
    group.addFormula("in_flight",
                     [this] {
                         return static_cast<double>(origins_.size());
                     },
                     "issued, not yet used / evicted / replaced");
    group.addHistogram("issue_to_use_cycles", &issueToUse_,
                       "prefetch timeliness: issue to first use");
    group.addHistogram("fill_latency_cycles", &fillLatency_,
                       "prefetch issue to fill completion");
    group.addHistogram("partial_stall_exposed_cycles",
                       &partialExposed_,
                       "exposed stall cycles per late prefetch");
    group.addCounter("queue_pushes", &queue_.pushes);
    group.addCounter("queue_hoists", &queue_.hoists);
    group.addCounter("queue_dup_drops", &queue_.duplicateDrops);
    group.addCounter("queue_overflow_drops", &queue_.overflowDrops);
    group.addCounter("queue_demand_invalidations",
                     &queue_.demandInvalidations);
    group.addFormula("queue_waiting_high_water",
                     [this] {
                         return static_cast<double>(
                             queue_.waitingHighWater());
                     },
                     "most waiting prefetches ever queued at once");
    group.addFormula("metadata_entries",
                     [this] {
                         return static_cast<double>(
                             metadataCost().entries);
                     },
                     "live prefetcher metadata entries");
    group.addFormula("metadata_bytes",
                     [this] {
                         return static_cast<double>(
                             metadataCost().bytes);
                     },
                     "modeled prefetcher metadata footprint");
    // Scheme-internal counters (e.g. temporal off-chip metadata
    // traffic) register here so they reset with the tree at the
    // warm-up boundary, keeping MetadataCost counters window-exact.
    if (prefetcher_)
        prefetcher_->registerStats(group);
}

} // namespace ipref
