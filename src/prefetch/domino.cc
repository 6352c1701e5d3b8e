#include "prefetch/domino.hh"

#include "prefetch/scheme_registry.hh"
#include "util/rng.hh"

namespace ipref
{

namespace
{

/** History appends write-combined into one off-chip chunk write. */
constexpr std::uint32_t kWriteChunk = 8;

std::uint64_t
mixAddrs(Addr a, Addr b)
{
    std::uint64_t s = a * 0x9e3779b97f4a7c15ull ^ b;
    return splitMix64(s);
}

} // namespace

DominoConfig
DominoConfig::fromKnobs(const KnobValues &knobs)
{
    DominoConfig c;
    c.historyEntries = static_cast<unsigned>(
        knobs.getUint("history", c.historyEntries));
    c.indexEntries =
        static_cast<unsigned>(knobs.getUint("index", c.indexEntries));
    c.replay =
        static_cast<unsigned>(knobs.getUint("replay", c.replay));
    c.singleFallback = knobs.getBool("single_fallback",
                                     c.singleFallback);
    return c;
}

DominoPrefetcher::DominoPrefetcher(const DominoConfig &cfg,
                                   unsigned lineBytes)
    : TemporalPrefetcherBase(lineBytes),
      cfg_(cfg),
      history_(cfg.historyEntries, invalidAddr),
      pairIndex_(cfg.indexEntries),
      singleIndex_(cfg.singleFallback ? cfg.indexEntries : 0)
{
}

std::size_t
DominoPrefetcher::pairSlot(Addr prev, Addr cur) const
{
    return static_cast<std::size_t>(mixAddrs(prev, cur) %
                                    pairIndex_.size());
}

std::size_t
DominoPrefetcher::singleSlot(Addr cur) const
{
    return static_cast<std::size_t>(mixAddrs(cur, 0) %
                                    singleIndex_.size());
}

void
DominoPrefetcher::replayFrom(std::uint32_t pos, Addr trigger,
                             std::vector<PrefetchCandidate> &out)
{
    ++replays_;
    ++metaOffChipReads_; // fetch the record block for this stream
    for (unsigned k = 1; k <= cfg_.replay; ++k) {
        std::uint32_t p = (pos + k) %
                          static_cast<std::uint32_t>(history_.size());
        if (p == head_)
            break; // ran into the write frontier
        Addr line = history_[p];
        if (line == invalidAddr || line == trigger)
            continue;
        PrefetchCandidate cand;
        cand.lineAddr = line;
        cand.origin = PrefetchOrigin::Temporal;
        cand.tableIndex = p;
        out.push_back(cand);
    }
}

void
DominoPrefetcher::onDemandFetch(const DemandFetchEvent &event,
                                std::vector<PrefetchCandidate> &out)
{
    // The record/replay stream is the tagged trigger stream (misses
    // plus first prefetch uses): once replay covers a sequence, its
    // former misses keep driving the stream as prefetch hits.
    if (!event.taggedTrigger())
        return;
    checkTriggerOrder(event);
    Addr cur = event.lineAddr;

    // Replay: the two-miss index disambiguates convergence points;
    // the single-miss table catches streams whose predecessor
    // differs from the recorded one.
    bool hit = false;
    if (prevTrigger_ != invalidAddr) {
        const IndexEntry &e = pairIndex_[pairSlot(prevTrigger_, cur)];
        if (e.prev == prevTrigger_ && e.cur == cur) {
            replayFrom(e.pos, cur, out);
            hit = true;
        }
    }
    if (!hit && cfg_.singleFallback) {
        const IndexEntry &e = singleIndex_[singleSlot(cur)];
        if (e.cur == cur)
            replayFrom(e.pos, cur, out);
    }

    // Record: index this trigger at the position it is about to
    // occupy, then append it to the history.
    if (prevTrigger_ != invalidAddr) {
        IndexEntry &e = pairIndex_[pairSlot(prevTrigger_, cur)];
        if (e.cur == invalidAddr)
            ++pairLive_;
        e = {prevTrigger_, cur, head_};
    }
    if (cfg_.singleFallback) {
        IndexEntry &e = singleIndex_[singleSlot(cur)];
        if (e.cur == invalidAddr)
            ++singleLive_;
        e = {invalidAddr, cur, head_};
    }
    history_[head_] = cur;
    head_ = (head_ + 1) % static_cast<std::uint32_t>(history_.size());
    ++recorded_;
    ++records_;
    if (recorded_ % kWriteChunk == 0)
        ++metaOffChipWrites_; // flush one write-combined chunk
    prevTrigger_ = cur;
}

MetadataCost
DominoPrefetcher::metadataCost() const
{
    MetadataCost m;
    m.entries = std::min<std::uint64_t>(recorded_, history_.size()) +
                pairLive_ + singleLive_;
    // 4 B per compressed history record; 10 B per index entry
    // (two partial miss tags + history pointer).
    m.bytes = history_.size() * 4 +
              (pairIndex_.size() + singleIndex_.size()) * 10;
    m.offChipReads = metaOffChipReads_.value();
    m.offChipWrites = metaOffChipWrites_.value();
    return m;
}

void
registerDominoScheme(SchemeRegistry &reg)
{
    reg.add(
        {"domino",
         "domino record/replay",
         {},
         withCommonKnobs(
             {{"history", KnobType::Uint, "16384",
               "miss-history buffer entries", 16, 1u << 24},
              {"index", KnobType::Uint, "8192",
               "entries per index table", 16, 1u << 24},
              {"replay", KnobType::Uint, "12",
               "history entries replayed per trigger", 1, 64},
              {"single_fallback", KnobType::Bool, "true",
               "fall back to a single-miss index on pair misses", 0,
               1}}),
         [](const PrefetchConfig &cfg, const KnobValues &knobs) {
             return std::unique_ptr<InstructionPrefetcher>(
                 std::make_unique<DominoPrefetcher>(
                     DominoConfig::fromKnobs(knobs),
                     cfg.lineBytes));
         }});
}

} // namespace ipref
