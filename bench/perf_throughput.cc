/**
 * @file
 * Simulator-throughput benchmark: how many simulated instructions per
 * wall-clock second each prefetching scheme sustains, for tracking
 * host-side performance regressions of the hot fetch/prefetch loops.
 *
 * Writes a JSON summary (default BENCH_throughput.json) with one
 * entry per scheme: measured MIPS, wall-clock seconds and the
 * simulated instruction count. Run-to-run MIPS noise is reduced by
 * taking the best of --reps repetitions.
 *
 * Usage:
 *   perf_throughput [--scale X] [--reps N] [--out FILE] [--csv]
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "util/logging.hh"

using namespace ipref;

namespace
{

struct Sample
{
    std::string label;
    double mips = 0.0;
    double seconds = 0.0;
    std::uint64_t instructions = 0;
};

Sample
measure(const std::string &label, const RunSpec &spec, unsigned reps)
{
    Sample best;
    best.label = label;
    for (unsigned rep = 0; rep < reps; ++rep) {
        System system(makeConfig(spec));
        system.run();
        const PhaseProfile &prof = system.profile();
        double mips = prof.measureInstrsPerSec() / 1e6;
        if (mips > best.mips) {
            best.mips = mips;
            best.seconds = prof.measureSeconds;
            best.instructions = prof.measureInstructions;
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    // Throughput is wall-clock sensitive: always run sequentially so
    // the schemes don't contend for cores, whatever --jobs says.
    BenchContext ctx(argc, argv, 1.0);
    unsigned reps =
        static_cast<unsigned>(ctx.opts.getUint("reps", 3));
    std::string out_path =
        ctx.opts.getString("out", "BENCH_throughput.json");

    struct Case
    {
        std::string label;
        SchemeSelection scheme;
        bool bypass;
    };
    std::vector<Case> cases = {{"none", SchemeSelection{}, false}};
    for (const SchemeSelection &s : ctx.schemeSelections(kPaperSchemes))
        cases.push_back({schemeLabel(s), s, true});

    std::vector<Sample> samples;
    std::string workload;
    for (const auto &c : cases) {
        RunSpec spec = ctx.spec()
                           .cmp(true)
                           .workload(WorkloadKind::DB)
                           .scheme(c.scheme)
                           .bypassL2(c.bypass)
                           .build();
        workload = makeConfig(spec).workloadSetName();
        samples.push_back(measure(c.label, spec, reps));
    }

    Table t("Simulator throughput (" + workload +
            ", 4-way CMP, best of " + std::to_string(reps) + ")");
    t.header({"Scheme", "Minstr/s", "measure secs", "instructions"});
    for (const Sample &s : samples)
        t.row({s.label, Table::num(s.mips, 2),
               Table::num(s.seconds, 3),
               std::to_string(s.instructions)});
    ctx.emit(t);

    std::ofstream out(out_path);
    if (!out)
        ipref_fatal("cannot write throughput report to '%s'",
                    out_path.c_str());
    out << "{\n  \"benchmark\": \"perf_throughput\",\n"
        << "  \"workload\": \"" << workload
        << "\",\n  \"cores\": 4,\n"
        << "  \"scale\": " << ctx.scale << ",\n"
        << "  \"reps\": " << reps << ",\n  \"schemes\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        out << "    {\"scheme\": \"" << s.label
            << "\", \"minstr_per_sec\": " << s.mips
            << ", \"measure_seconds\": " << s.seconds
            << ", \"instructions\": " << s.instructions << "}"
            << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "throughput report written to " << out_path << "\n";
    return ctx.exitCode();
}
