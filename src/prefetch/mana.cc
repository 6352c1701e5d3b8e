#include "prefetch/mana.hh"

#include "prefetch/scheme_registry.hh"
#include "util/rng.hh"

namespace ipref
{

ManaConfig
ManaConfig::fromKnobs(const PrefetchConfig &cfg,
                      const KnobValues &knobs)
{
    (void)cfg;
    ManaConfig c;
    c.tableEntries =
        static_cast<unsigned>(knobs.getUint("table", c.tableEntries));
    c.regionLines = static_cast<unsigned>(
        knobs.getUint("region", c.regionLines));
    c.chain = static_cast<unsigned>(knobs.getUint("chain", c.chain));
    return c;
}

ManaPrefetcher::ManaPrefetcher(const ManaConfig &cfg,
                               unsigned lineBytes)
    : TemporalPrefetcherBase(lineBytes),
      cfg_(cfg),
      records_tbl_(cfg.tableEntries),
      index_(cfg.tableEntries, -1)
{
}

std::size_t
ManaPrefetcher::indexSlot(Addr base) const
{
    return static_cast<std::size_t>(splitMix64(base) %
                                    index_.size());
}

void
ManaPrefetcher::emitRecord(std::int32_t idx, Addr skip,
                           std::vector<PrefetchCandidate> &out) const
{
    const Record &rec = records_tbl_[static_cast<std::size_t>(idx)];
    if (rec.base == invalidAddr)
        return;
    for (unsigned i = 0; i < cfg_.regionLines; ++i) {
        if (!(rec.bitmap & (1u << i)))
            continue;
        Addr line = rec.base + static_cast<Addr>(i) * lineBytes_;
        if (line == skip)
            continue;
        PrefetchCandidate cand;
        cand.lineAddr = line;
        cand.origin = PrefetchOrigin::Temporal;
        cand.tableIndex = static_cast<std::uint32_t>(idx);
        out.push_back(cand);
    }
}

void
ManaPrefetcher::onDemandFetch(const DemandFetchEvent &event,
                              std::vector<PrefetchCandidate> &out)
{
    if (!event.taggedTrigger())
        return;
    checkTriggerOrder(event);
    Addr cur = event.lineAddr;

    // Replay: this trigger anchors a recorded region — emit its
    // spatial footprint and walk the chain ahead.
    std::int32_t hit = index_[indexSlot(cur)];
    if (hit >= 0 &&
        records_tbl_[static_cast<std::size_t>(hit)].base !=
            invalidAddr &&
        cur >= records_tbl_[static_cast<std::size_t>(hit)].base &&
        (cur - records_tbl_[static_cast<std::size_t>(hit)].base) /
                lineBytes_ <
            cfg_.regionLines) {
        ++replays_;
        emitRecord(hit, cur, out);
        std::int32_t walk = hit;
        for (unsigned c = 0; c < cfg_.chain; ++c) {
            walk = records_tbl_[static_cast<std::size_t>(walk)].next;
            if (walk < 0)
                break;
            emitRecord(walk, cur, out);
        }
    }

    // Record: extend the open region when the trigger lands inside
    // it, otherwise open a new record anchored here and chain it.
    if (openRec_ >= 0) {
        Record &open = records_tbl_[static_cast<std::size_t>(openRec_)];
        if (open.base != invalidAddr && cur >= open.base) {
            Addr off = (cur - open.base) / lineBytes_;
            if (off < cfg_.regionLines) {
                open.bitmap |= 1u << off;
                // Index interior lines too: a later stream that
                // enters the region mid-span still finds the record.
                index_[indexSlot(cur)] =
                    static_cast<std::int32_t>(openRec_);
                prevTrigger_ = cur;
                return;
            }
        }
    }
    std::uint32_t idx = alloc_;
    alloc_ = (alloc_ + 1) % static_cast<std::uint32_t>(
                                records_tbl_.size());
    Record &rec = records_tbl_[idx];
    if (rec.base != invalidAddr) {
        // Reuse: drop the evicted record's index entry if it still
        // points here (stale chain pointers self-invalidate on the
        // base check at replay).
        std::size_t slot = indexSlot(rec.base);
        if (index_[slot] == static_cast<std::int32_t>(idx))
            index_[slot] = -1;
    } else {
        ++live_;
    }
    rec.base = cur;
    rec.bitmap = 1u;
    rec.next = -1;
    index_[indexSlot(cur)] = static_cast<std::int32_t>(idx);
    if (openRec_ >= 0 &&
        openRec_ != static_cast<std::int32_t>(idx))
        records_tbl_[static_cast<std::size_t>(openRec_)].next =
            static_cast<std::int32_t>(idx);
    openRec_ = static_cast<std::int32_t>(idx);
    ++records_;
    prevTrigger_ = cur;
}

MetadataCost
ManaPrefetcher::metadataCost() const
{
    MetadataCost m;
    m.entries = live_;
    // Per record: compressed base pointer (~4 B, MANA's HOBPT
    // sharing), the spatial bitmap, and a chain pointer (~2 B);
    // plus a 2 B index slot per entry. All on-chip: no off-chip
    // metadata traffic by construction.
    std::uint64_t recordBytes = 4 + (cfg_.regionLines + 7) / 8 + 2;
    m.bytes = records_tbl_.size() * recordBytes + index_.size() * 2;
    m.offChipReads = 0;
    m.offChipWrites = 0;
    return m;
}

void
registerManaScheme(SchemeRegistry &reg)
{
    reg.add({"mana",
             "mana spatial regions",
             {},
             withCommonKnobs(
                 {{"table", KnobType::Uint, "16384",
                   "region record table entries", 16, 1u << 22},
                  {"region", KnobType::Uint, "16",
                   "lines spanned by one spatial record", 2, 32},
                  {"chain", KnobType::Uint, "8",
                   "records walked ahead per replay", 0, 16}}),
             [](const PrefetchConfig &cfg, const KnobValues &knobs) {
                 return std::unique_ptr<InstructionPrefetcher>(
                     std::make_unique<ManaPrefetcher>(
                         ManaConfig::fromKnobs(cfg, knobs),
                         cfg.lineBytes));
             }});
}

} // namespace ipref
