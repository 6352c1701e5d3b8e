/**
 * @file
 * Figure 9: (i) prefetch accuracy of each scheme on the 4-way CMP,
 * and (ii) the performance of the next-2-line discontinuity
 * prefetcher ("discont 2NL") — trading timeliness for accuracy —
 * against the other schemes (with L2-bypass, as in Figure 8).
 */

#include "bench/bench_common.hh"

using namespace ipref;

namespace
{

struct SchemeSpec
{
    std::string label;
    std::string scheme;
    unsigned degree;
};

const std::vector<SchemeSpec> &
schemesWith2NL()
{
    static const std::vector<SchemeSpec> schemes = {
        {"next-line (on miss)", "nl-miss", 1},
        {"next-line (tagged)", "nl-tagged", 1},
        {"next-4-lines (tagged)", "n4l", 4},
        {"discontinuity", "discontinuity", 4},
        {"discont (2NL)", "discontinuity", 2},
    };
    return schemes;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.8);

    const auto sets = figureWorkloads(true);

    // One batch: baselines first, then the scheme grid (row-major).
    std::vector<RunSpec> specs;
    for (const auto &ws : sets)
        specs.push_back(
            ctx.spec().cmp(true).workloads(ws.kinds).build());
    for (const auto &ss : schemesWith2NL()) {
        for (const auto &ws : sets)
            specs.push_back(ctx.spec()
                                .cmp(true)
                                .workloads(ws.kinds)
                                .scheme(ss.scheme)
                                .degree(ss.degree)
                                .bypassL2()
                                .build());
    }
    std::vector<SimResults> results = ctx.run(specs);

    std::vector<std::string> header = {"Scheme"};
    for (const auto &ws : sets)
        header.push_back(ws.label);

    Table acc("Figure 9(i): prefetch accuracy (4-way CMP)");
    Table perf("Figure 9(ii): speedup incl. discont (2NL) "
               "(4-way CMP, with bypass)");
    acc.header(header);
    perf.header(header);

    std::size_t next = sets.size();
    for (const auto &ss : schemesWith2NL()) {
        std::vector<std::string> arow = {ss.label};
        std::vector<std::string> prow = {ss.label};
        for (std::size_t wi = 0; wi < sets.size(); ++wi) {
            const SimResults &r = results[next++];
            arow.push_back(Table::pct(r.pfAccuracy(), 1));
            prow.push_back(
                Table::num(speedup(results[wi], r), 3) + "X");
        }
        acc.row(arow);
        perf.row(prow);
    }
    ctx.emit(acc);
    ctx.emit(perf);
    return ctx.exitCode();
}
