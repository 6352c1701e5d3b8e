/**
 * @file
 * ipref_worker — the campaign worker executable.
 *
 * Spawned by the campaign coordinator (runCampaign); speaks the
 * line-delimited JSON protocol on stdin/stdout and runs one dispatched
 * RunSpec at a time. Not intended for interactive use: run a campaign
 * with `ipref_campaign` (or any bench's `--workers N`) instead.
 *
 * Flags (all optional, normally set by the coordinator):
 *   --worker-metrics-out FILE        per-worker JSON-lines telemetry
 *   --worker-metrics-interval-ms N   sampling period (default 200)
 */

#include <iostream>

#include "sim/worker.hh"
#include "util/error.hh"
#include "util/options.hh"

int
main(int argc, char **argv)
try {
    ipref::Options opts(argc, argv);
    ipref::workerMain(opts); // never returns
} catch (const ipref::SimError &e) {
    std::cerr << "error (" << ipref::errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
