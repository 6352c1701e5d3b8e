/**
 * @file
 * Trace tooling example: generate a workload trace, summarize it
 * (instruction mix, CTI breakdown, footprints, line-popularity
 * concentration), and optionally round-trip it through a trace file.
 *
 * Usage:
 *   trace_tools [--workload db] [--instrs N] [--save path]
 *               [--load path] [--tolerant]
 *
 * --save writes a v3 trace file; --load reads one back.
 *
 * --tolerant salvages the valid prefix of a damaged trace (with a
 * warning) instead of failing; any error exits 1 with a message.
 */

#include <iostream>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.hh"
#include "trace/trace_file.hh"
#include "trace/trace_stats.hh"
#include "trace/trace_v3.hh"
#include "util/options.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

/** Print how concentrated the fetch-line stream is. */
void
concentration(TraceSource &src, std::uint64_t n)
{
    std::unordered_map<Addr, std::uint64_t> lines;
    InstrRecord rec;
    Addr prev_line = invalidAddr;
    for (std::uint64_t i = 0; i < n && src.next(rec); ++i) {
        Addr line = rec.pc >> 6;
        if (line != prev_line) {
            ++lines[line];
            prev_line = line;
        }
    }
    std::vector<std::uint64_t> counts;
    counts.reserve(lines.size());
    for (const auto &kv : lines)
        counts.push_back(kv.second);
    Concentration c =
        lineConcentration(std::move(counts), {0.5, 0.9, 0.99});
    std::cout << "line fetches: " << c.total << " over "
              << c.uniqueLines << " unique lines ("
              << c.uniqueLines * 64 / 1024 << " KB touched)\n";
    for (const auto &p : c.points)
        std::cout << "  " << p.quantile * 100 << "% of fetches from "
                  << p.lines << " lines (" << p.lines * 64 / 1024
                  << " KB)\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);
    std::uint64_t n = opts.getUint("instrs", 3'000'000);

    if (opts.has("load")) {
        TraceReadMode mode = opts.getBool("tolerant")
                                 ? TraceReadMode::Tolerant
                                 : TraceReadMode::Strict;
        auto reader = openTraceReader(opts.getString("load"), mode);
        TraceSummary s = summarizeTrace(*reader, n);
        s.print(std::cout);
        if (reader->corrupt())
            std::cerr << "warning: trace damaged, salvaged "
                      << reader->delivered() << " of "
                      << reader->count() << " records ("
                      << reader->corruptionDetail() << ")\n";
        return 0;
    }

    WorkloadKind kind =
        parseWorkloadKind(opts.getString("workload", "db"));
    auto wl = makeWorkload(kind, 0);

    if (opts.has("save")) {
        TraceFileWriter writer(opts.getString("save"));
        InstrRecord rec;
        for (std::uint64_t i = 0; i < n && wl->next(rec); ++i)
            writer.write(rec);
        writer.close();
        std::cout << "wrote " << writer.count() << " records to "
                  << opts.getString("save") << "\n";
        return 0;
    }

    TraceSummary s = summarizeTrace(*wl, n);
    s.print(std::cout);
    wl->reset();
    concentration(*wl, n);
    std::cout << "transactions completed: "
              << wl->transactionsCompleted() << "\n";
    return 0;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
