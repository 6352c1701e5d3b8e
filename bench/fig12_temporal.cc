/**
 * @file
 * Figure 12 (extension): the temporal record/replay prefetcher
 * family — domino, isb and mana, all registry-only schemes — against
 * the paper's best structural schemes (next-4-lines tagged and
 * discontinuity) on every workload preset. Besides the paper's
 * coverage / accuracy / speedup axes, each scheme's metadata storage
 * (entries, KB) and modeled off-chip metadata traffic are reported:
 * the temporal schemes buy their coverage with state the structural
 * schemes don't need, and this table prices it.
 *
 * Extra flags on top of the common set (see bench_common.hh):
 *   --out FILE      JSON summary (default fig12_temporal.json);
 *                   bit-identical at any --jobs / --workers count
 *   --check-floor   exit non-zero unless every temporal scheme
 *                   (one issuing Temporal-origin prefetches) beats
 *                   next-4-lines coverage on at least one preset —
 *                   the CI regression gate for this figure
 */

#include <fstream>
#include <sstream>

#include "bench/bench_common.hh"
#include "util/logging.hh"

using namespace ipref;

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.8);

    const auto sets = figureWorkloads(true);
    const std::vector<SchemeSelection> sels = ctx.schemeSelections(
        {"n4l", "discontinuity", "domino", "isb", "mana"});
    const std::string outPath =
        ctx.opts.getString("out", "fig12_temporal.json");
    const bool checkFloor = ctx.opts.getBool("check-floor");

    // One batch: the no-prefetch baselines first, then the scheme
    // grid (row-major), so speedups share the baseline runs.
    std::vector<RunSpec> specs;
    for (const auto &ws : sets)
        specs.push_back(
            ctx.spec().cmp(true).workloads(ws.kinds).build());
    for (const auto &sel : sels)
        for (const auto &ws : sets)
            specs.push_back(ctx.spec()
                                .cmp(true)
                                .workloads(ws.kinds)
                                .scheme(sel)
                                .build());
    std::vector<SimResults> results = ctx.run(specs);

    std::vector<std::string> header = {"Scheme"};
    for (const auto &ws : sets)
        header.push_back(ws.label);

    Table cov("Figure 12(i): L1I miss coverage (4-way CMP)");
    Table acc("Figure 12(ii): prefetch accuracy");
    Table perf("Figure 12(iii): speedup over no prefetch");
    Table meta("Figure 12(iv): prefetcher metadata (Mixed preset)");
    cov.header(header);
    acc.header(header);
    perf.header(header);
    meta.header({"Scheme", "entries", "KB", "off-chip rd", "off-chip wr"});

    auto label = [](const SchemeSelection &sel) {
        std::string l = sel.token;
        if (!sel.knobs.empty())
            l.append(":").append(sel.knobs.canonical());
        return l;
    };

    const std::size_t temporalIdx =
        static_cast<std::size_t>(PrefetchOrigin::Temporal);

    std::ostringstream json;
    json << "{\n  \"benchmark\": \"fig12_temporal\",\n"
         << "  \"schemes\": [\n";

    // Per-scheme best coverage margin over the n4l row (for the
    // floor check); n4l's own coverages fill first.
    std::vector<double> n4lCov(sets.size(), 0.0);
    for (std::size_t si = 0; si < sels.size(); ++si) {
        if (sels[si].token != "n4l")
            continue;
        for (std::size_t wi = 0; wi < sets.size(); ++wi)
            n4lCov[wi] =
                results[sets.size() * (si + 1) + wi].l1iCoverage();
    }

    bool floorOk = true;
    std::size_t next = sets.size();
    for (std::size_t si = 0; si < sels.size(); ++si) {
        const SchemeSelection &sel = sels[si];
        std::vector<std::string> crow = {label(sel)};
        std::vector<std::string> arow = {label(sel)};
        std::vector<std::string> prow = {label(sel)};
        bool isTemporal = false;
        bool beatsN4l = false;
        json << (si ? ",\n" : "") << "    {\"scheme\": \""
             << sel.token << "\", \"knobs\": \""
             << sel.knobs.canonical() << "\", \"workloads\": [";
        for (std::size_t wi = 0; wi < sets.size(); ++wi) {
            const SimResults &r = results[next++];
            crow.push_back(Table::pct(r.l1iCoverage(), 1));
            arow.push_back(Table::pct(r.pfAccuracy(), 1));
            prow.push_back(
                Table::num(speedup(results[wi], r), 3) + "X");
            if (r.pfIssuedByOrigin[temporalIdx] > 0)
                isTemporal = true;
            if (r.l1iCoverage() > n4lCov[wi])
                beatsN4l = true;
            json << (wi ? ", " : "") << "{\"workload\": \""
                 << sets[wi].label
                 << "\", \"coverage\": " << r.l1iCoverage()
                 << ", \"accuracy\": " << r.pfAccuracy()
                 << ", \"speedup\": " << speedup(results[wi], r)
                 << ", \"meta_entries\": " << r.pfMetaEntries
                 << ", \"meta_bytes\": " << r.pfMetaBytes
                 << ", \"meta_offchip_reads\": "
                 << r.pfMetaOffChipReads
                 << ", \"meta_offchip_writes\": "
                 << r.pfMetaOffChipWrites << "}";
        }
        json << "]}";
        cov.row(crow);
        acc.row(arow);
        perf.row(prow);

        // Metadata pricing on the Mixed (last) preset — the largest
        // footprint the scheme grew in this bench.
        const SimResults &m = results[next - 1];
        meta.row({label(sel), std::to_string(m.pfMetaEntries),
                  Table::num(static_cast<double>(m.pfMetaBytes) /
                                 1024.0,
                             1),
                  std::to_string(m.pfMetaOffChipReads),
                  std::to_string(m.pfMetaOffChipWrites)});

        if (checkFloor && isTemporal && !beatsN4l) {
            std::cerr << "fig12 floor: temporal scheme '"
                      << label(sel)
                      << "' does not beat n4l coverage on any "
                         "preset\n";
            floorOk = false;
        }
    }
    json << "\n  ]\n}\n";

    ctx.emit(cov);
    ctx.emit(acc);
    ctx.emit(perf);
    ctx.emit(meta);

    std::ofstream out(outPath);
    if (!out)
        ipref_fatal("cannot write fig12 report to '%s'",
                    outPath.c_str());
    out << json.str();
    std::cout << "fig12 report written to " << outPath << "\n";

    int code = ctx.exitCode();
    return code ? code : (floorOk ? 0 : 1);
}
