/**
 * @file
 * Domain example: compare every instruction-prefetching scheme on a
 * chosen commercial workload, reporting the paper's headline metrics
 * side by side — miss-rate reduction, coverage, accuracy, bandwidth
 * cost and speedup — with and without the selective-L2-install
 * optimization.
 *
 * Usage:
 *   prefetcher_comparison [--workload db] [--cores 4] [--scale X]
 *                         [--jobs N]
 */

#include <iostream>

#include "prefetch/scheme_registry.hh"
#include "sim/experiment.hh"
#include "util/options.hh"
#include "util/table.hh"

using namespace ipref;

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);
    WorkloadKind kind =
        parseWorkloadKind(opts.getString("workload", "db"));
    bool cmp = opts.getInt("cores", 4) == 4;
    double scale = opts.getDouble("scale", 0.5);
    unsigned jobs = static_cast<unsigned>(opts.getUint("jobs", 0));

    RunSpec base_spec = RunSpec::builder()
                            .cmp(cmp)
                            .workload(kind)
                            .instrScale(scale)
                            .build();

    struct Entry
    {
        std::string scheme;
        unsigned degree;
        bool bypass;
    };
    const std::vector<Entry> entries = {
        {"nl-miss", 1, false},
        {"nl-tagged", 1, false},
        {"n4l", 4, false},
        {"n4l", 4, true},
        {"target", 1, false},
        {"discontinuity", 4, false},
        {"discontinuity", 4, true},
        {"discontinuity", 2, true},
    };

    // One batch: the baseline first, then every scheme variant.
    std::vector<RunSpec> specs = {base_spec};
    for (const auto &e : entries)
        specs.push_back(RunSpec::Builder(base_spec)
                            .scheme(e.scheme)
                            .degree(e.degree)
                            .bypassL2(e.bypass)
                            .build());
    std::vector<SimResults> results = runSpecs(specs, jobs);
    const SimResults &base = results[0];

    std::cout << "Workload " << workloadName(kind) << " on "
              << (cmp ? "4-way CMP" : "a single core")
              << ": baseline IPC " << base.ipc << ", L1I miss rate "
              << base.l1iMissPerInstr() * 100 << "%/instr\n\n";

    Table t("Scheme comparison");
    t.header({"Scheme", "bypass", "L1I miss (norm)", "coverage",
              "accuracy", "mem reads (norm)", "L2D miss (norm)",
              "speedup"});

    std::size_t next = 1;
    for (const auto &e : entries) {
        const SimResults &r = results[next++];
        std::string label =
            SchemeRegistry::instance().at(e.scheme).displayName;
        if (e.scheme == "discontinuity" && e.degree == 2)
            label += " 2NL";
        t.row({label, e.bypass ? "yes" : "no",
               Table::num(base.l1iMissPerInstr() > 0
                              ? r.l1iMissPerInstr() /
                                    base.l1iMissPerInstr()
                              : 0.0,
                          3),
               Table::pct(r.l1iCoverage(), 1),
               Table::pct(r.pfAccuracy(), 1),
               Table::num(base.memReads
                              ? static_cast<double>(r.memReads) /
                                    static_cast<double>(
                                        base.memReads)
                              : 0.0,
                          2),
               Table::num(base.l2dMissPerInstr() > 0
                              ? r.l2dMissPerInstr() /
                                    base.l2dMissPerInstr()
                              : 0.0,
                          3),
               Table::num(base.ipc > 0 ? r.ipc / base.ipc : 0.0, 3) +
                   "X"});
    }
    t.print(std::cout);
    return 0;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
