/**
 * @file
 * Domino-style temporal instruction prefetcher: record the L1I
 * miss-stream in a circular history buffer and replay it, indexed by
 * the last *two* misses (falling back to one) so control-flow
 * convergence points pick the right successor sequence. Adapted to
 * the instruction stream from the Domino data prefetcher the
 * record/replay survey (arXiv 2009.00715) describes.
 *
 * Metadata model: the history buffer and the two index tables live
 * off-chip (as in Domino), so every replay lookup that hits counts
 * one modeled off-chip metadata read (fetching the record block) and
 * history appends are write-combined into chunked off-chip writes.
 */

#ifndef IPREF_PREFETCH_DOMINO_HH
#define IPREF_PREFETCH_DOMINO_HH

#include <vector>

#include "prefetch/temporal.hh"

namespace ipref
{

class SchemeRegistry;
class KnobValues;

/** Typed knob struct of the "domino" scheme. */
struct DominoConfig
{
    unsigned historyEntries = 16384; //!< knob "history"
    unsigned indexEntries = 8192;    //!< knob "index" (each table)
    unsigned replay = 12;            //!< knob "replay" (per trigger)
    bool singleFallback = true;      //!< knob "single_fallback"

    static DominoConfig fromKnobs(const KnobValues &knobs);
};

/** Two-miss-indexed record/replay prefetcher. */
class DominoPrefetcher : public TemporalPrefetcherBase
{
  public:
    DominoPrefetcher(const DominoConfig &cfg, unsigned lineBytes);

    void onDemandFetch(const DemandFetchEvent &event,
                       std::vector<PrefetchCandidate> &out) override;

    const char *name() const override { return "domino"; }

    MetadataCost metadataCost() const override;

  private:
    struct IndexEntry
    {
        Addr prev = invalidAddr; //!< invalidAddr in the single table
        Addr cur = invalidAddr;
        std::uint32_t pos = 0;   //!< history position of `cur`
    };

    /** Replay up to cfg_.replay history entries following @p pos. */
    void replayFrom(std::uint32_t pos, Addr trigger,
                    std::vector<PrefetchCandidate> &out);

    std::size_t pairSlot(Addr prev, Addr cur) const;
    std::size_t singleSlot(Addr cur) const;

    DominoConfig cfg_;
    std::vector<Addr> history_;
    std::vector<IndexEntry> pairIndex_;
    std::vector<IndexEntry> singleIndex_;
    std::uint32_t head_ = 0;        //!< next history write position
    std::uint64_t recorded_ = 0;    //!< lifetime history appends
    std::uint64_t pairLive_ = 0;    //!< filled pair-index entries
    std::uint64_t singleLive_ = 0;  //!< filled single-index entries
    Addr prevTrigger_ = invalidAddr;
};

/** Register the "domino" scheme descriptor. */
void registerDominoScheme(SchemeRegistry &reg);

} // namespace ipref

#endif // IPREF_PREFETCH_DOMINO_HH
