/**
 * @file
 * Domain example: the shared-L2 pollution story of Sections 6-7.
 *
 * Runs the 4-way CMP three times — no prefetching, aggressive
 * discontinuity prefetching, and discontinuity prefetching with
 * selective L2 installation — and narrates where the performance
 * goes: instruction misses eliminated, data misses inflated by
 * pollution, and the bypass scheme recovering the loss.
 *
 * Usage:
 *   cmp_pollution [--workload mixed|db|tpcw|japp|web] [--scale X]
 *                 [--jobs N]
 */

#include <iostream>

#include "sim/experiment.hh"
#include "util/options.hh"

using namespace ipref;

namespace
{

void
report(const char *label, const SimResults &r, const SimResults *base)
{
    std::cout << label << "\n";
    std::cout << "  aggregate IPC:        " << r.ipc;
    if (base)
        std::cout << "  (" << r.ipc / base->ipc << "X)";
    std::cout << "\n";
    std::cout << "  L1I misses / instr:   "
              << r.l1iMissPerInstr() * 100 << "%\n";
    std::cout << "  L2 instr misses:      "
              << r.l2iMissPerInstr() * 100 << "%\n";
    std::cout << "  L2 data misses:       "
              << r.l2dMissPerInstr() * 100 << "%";
    if (base && base->l2dMissPerInstr() > 0)
        std::cout << "  (" << r.l2dMissPerInstr() /
                                 base->l2dMissPerInstr()
                  << "X vs baseline)";
    std::cout << "\n";
    if (r.pfIssued) {
        std::cout << "  prefetches issued:    " << r.pfIssued
                  << " (accuracy " << r.pfAccuracy() * 100
                  << "%, coverage " << r.l1iCoverage() * 100
                  << "%)\n";
        std::cout << "  bypass installs/drops: " << r.bypassInstalls
                  << " / " << r.bypassDrops << "\n";
    }
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);
    std::string w = opts.getString("workload", "mixed");

    // The preset resolver accepts "mixed" and the single names
    // alike, so the CLI argument maps straight onto the TraceSpec.
    RunSpec spec = RunSpec::builder()
                       .cmp(true)
                       .trace(TraceSpec::workloadPreset(w))
                       .instrScale(opts.getDouble("scale", 0.5))
                       .build();

    std::cout << "=== Shared-L2 pollution on a 4-way CMP ("
              << (w == "mixed" ? "Mixed" : w) << ") ===\n\n";

    // All three configurations as one batch.
    std::vector<RunSpec> specs = {spec};
    specs.push_back(RunSpec::Builder(spec)
                        .scheme("discontinuity")
                        .build());
    specs.push_back(RunSpec::Builder(spec)
                        .scheme("discontinuity")
                        .bypassL2()
                        .build());
    std::vector<SimResults> results = runSpecs(
        specs, static_cast<unsigned>(opts.getUint("jobs", 0)));

    const SimResults &base = results[0];
    const SimResults &aggressive = results[1];
    const SimResults &bypass = results[2];
    report("[1] no prefetching", base, nullptr);
    report("[2] discontinuity prefetcher (prefetches install into "
           "the L2)",
           aggressive, &base);
    report("[3] discontinuity prefetcher + selective L2 install "
           "(Section 7)",
           bypass, &base);

    std::cout << "Summary: prefetching removed "
              << (1.0 - aggressive.l1iMissPerInstr() /
                            base.l1iMissPerInstr()) *
                     100
              << "% of instruction misses but inflated L2 data "
                 "misses by "
              << (aggressive.l2dMissPerInstr() /
                      base.l2dMissPerInstr() -
                  1.0) *
                     100
              << "%; selective install recovers the data misses "
                 "and lifts the speedup from "
              << aggressive.ipc / base.ipc << "X to "
              << bypass.ipc / base.ipc << "X.\n";
    return 0;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
