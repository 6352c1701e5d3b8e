/**
 * @file
 * ipref_worker — the campaign worker executable.
 *
 * Spawned by the campaign coordinator (runCampaign); speaks the
 * line-delimited JSON protocol on stdin/stdout and runs one dispatched
 * RunSpec at a time. Not intended for interactive use: run a campaign
 * with `ipref_campaign` (or any bench's `--workers N`) instead.
 *
 * Takes no flags and writes no telemetry of its own: its heartbeats
 * feed the coordinator's `--metrics-out` stream, the fleet view.
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
