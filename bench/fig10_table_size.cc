/**
 * @file
 * Figure 10: prefetch coverage of L1I and L2 (4-way CMP) instruction
 * misses as the discontinuity prediction table shrinks from 8K to
 * 256 entries, with the next-4-line sequential prefetcher as the
 * reference point.
 */

#include "bench/bench_common.hh"

using namespace ipref;

namespace
{

/** Coverage = eliminated misses / baseline misses. */
double
coverage(std::uint64_t baseMisses, std::uint64_t misses)
{
    if (baseMisses == 0)
        return 0.0;
    if (misses >= baseMisses)
        return 0.0;
    return 1.0 - static_cast<double>(misses) /
                     static_cast<double>(baseMisses);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv, 0.3);

    struct Row
    {
        std::string label;
        std::string scheme;
        unsigned entries;
    };
    std::vector<Row> rows;
    for (unsigned entries : {8192u, 4096u, 2048u, 1024u, 512u, 256u})
        rows.push_back({std::to_string(entries) + "-entries",
                        "discontinuity", entries});
    rows.push_back({"next-4-lines (tagged)", "n4l", 8192});

    const auto sets = figureWorkloads(true);

    // One batch: baselines first, then the table-size grid.
    std::vector<RunSpec> specs;
    for (const auto &ws : sets)
        specs.push_back(
            ctx.spec().cmp(true).workloads(ws.kinds).build());
    for (const auto &cfg : rows) {
        for (const auto &ws : sets)
            specs.push_back(ctx.spec()
                                .cmp(true)
                                .workloads(ws.kinds)
                                .scheme(cfg.scheme)
                                .tableEntries(cfg.entries)
                                .build());
    }
    std::vector<SimResults> results = ctx.run(specs);

    std::vector<std::string> header = {"Configuration"};
    for (const auto &ws : sets)
        header.push_back(ws.label);

    Table l1("Figure 10(i): L1I miss coverage vs discontinuity "
             "table size (4-way CMP)");
    Table l2("Figure 10(ii): L2 instruction miss coverage vs table "
             "size (4-way CMP)");
    l1.header(header);
    l2.header(header);

    std::size_t next = sets.size();
    for (const auto &cfg : rows) {
        std::vector<std::string> r1 = {cfg.label};
        std::vector<std::string> r2 = {cfg.label};
        for (std::size_t wi = 0; wi < sets.size(); ++wi) {
            const SimResults &r = results[next++];
            r1.push_back(Table::pct(
                coverage(results[wi].l1iMisses, r.l1iMisses), 1));
            r2.push_back(Table::pct(
                coverage(results[wi].l2iMisses, r.l2iMisses), 1));
        }
        l1.row(r1);
        l2.row(r2);
    }
    ctx.emit(l1);
    ctx.emit(l2);
    return ctx.exitCode();
}
