/**
 * @file
 * Shared helpers for the figure-reproduction benches: scaling,
 * output selection and common run patterns.
 *
 * Every bench accepts:
 *   --scale X            multiply the default instruction budgets
 *                        (also via the IPREF_SCALE environment
 *                        variable; both compose)
 *   --jobs N             run independent simulations on N pool
 *                        threads (default: hardware concurrency;
 *                        1 = sequential). Results and reports are
 *                        bit-identical at any job count.
 *   --csv                print comma-separated values instead of
 *                        tables
 *   --stats-json FILE    write a JSON array with one report per run
 *   --stats-interval N   sample counter deltas every N instructions
 *   --trace-events N     keep the last N structured trace events
 *   --trace-out FILE     trace destination (JSON lines)
 *   --profile-sites K    track the K hottest miss sites / edges
 *   --scheme SPEC[,SPEC] prefetch scheme(s) to compare, as registry
 *                        tokens or aliases, each optionally followed
 *                        by knob settings: "domino:history=65536,
 *                        replay=2" (knob segments without a ':'
 *                        attach to the preceding scheme). Use
 *                        `--scheme help` to print the registered
 *                        schemes and their knob schemas. Default:
 *                        the paper's Figure 5-9 set.
 *   --trace FILE         replay a binary trace file on every core
 *                        instead of the synthetic workloads
 *   --trace-tolerant     salvage the intact prefix of a damaged
 *                        trace instead of failing the run
 *   --retries N          attempts per run; transient failures back
 *                        off and retry (default 1 = no retries)
 *   --timeout-ms N       per-run deadline; runaway runs are marked
 *                        timed out instead of hanging the batch
 *   --manifest FILE      campaign checkpoint: one line appended
 *                        after every run
 *   --resume             skip runs the manifest already completed
 *   --seed N             base RNG seed for every run (default 1;
 *                        campaigns with the same seed are
 *                        bit-identical)
 *   --metrics-interval-ms N
 *                        telemetry sampling period (default 1000)
 *   --metrics-out FILE   JSON-lines telemetry time series (watch it
 *                        live with tools/ipref_top); this flag alone
 *                        turns the sampler on
 *   --workers N          run the batch on N crash-isolated worker
 *                        processes (runCampaign) instead of in-process
 *                        pool threads; results stay bit-identical
 *   --worker-bin PATH    worker executable (default: auto-discover,
 *                        falling back to this bench re-exec'ed with
 *                        --worker-mode)
 *   --worker-faults S    IPREF_FAULTS schedule installed in workers
 *   --worker-mode        (internal) become a campaign worker: speak
 *                        the coordinator protocol on stdin/stdout and
 *                        never return
 *
 * A malformed flag value (`--jobs abc`) ends the bench with exit
 * status 1 and an `error (<kind>): <what>` line naming the flag.
 *
 * A failed run no longer kills the whole bench: the failure is
 * reported on stderr, its table cells read zero, and main should
 * `return ctx.exitCode();` (non-zero iff any run failed — the exit
 * path prints a per-status summary line when a campaign ends with
 * failed, timed-out, interrupted or quarantined specs).
 */

#ifndef IPREF_BENCH_BENCH_COMMON_HH
#define IPREF_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "prefetch/scheme_registry.hh"
#include "sim/coordinator.hh"
#include "sim/experiment.hh"
#include "sim/worker.hh"
#include "util/error.hh"
#include "util/metrics.hh"
#include "util/options.hh"
#include "util/table.hh"

namespace ipref
{

/** Parsed bench context. */
struct BenchContext
{
    BenchContext(int argc, char **argv, double defaultScale = 0.3)
    try : opts(argc, argv) {
        // A coordinator may have exec'ed this very bench as its
        // worker (see findWorkerBinary); hand the process over before
        // any bench-side flag touches global state.
        if (opts.getBool("worker-mode"))
            workerMain(opts); // never returns

        scale = defaultScale * envScale() *
                opts.getDouble("scale", 1.0);
        csv = opts.getBool("csv");
        jobs = static_cast<unsigned>(opts.getUint("jobs", 0));

        batch.jobs = jobs;
        batch.maxAttempts = static_cast<unsigned>(
            opts.getUint("retries", 1));
        batch.runTimeoutMs = opts.getUint("timeout-ms", 0);
        batch.manifestPath = opts.getString("manifest");
        batch.resume = opts.getBool("resume");

        ObservabilityOptions obs;
        obs.jsonPath = opts.getString("stats-json");
        obs.intervalInstrs = opts.getUint("stats-interval", 0);
        obs.traceCapacity = opts.getUint("trace-events", 0);
        obs.tracePath =
            opts.getString("trace-out", "trace_events.jsonl");
        obs.profileSites = opts.getUint("profile-sites", 0);
        setObservability(obs);

        seed = opts.getUint("seed", 1);

        metrics::MetricsOptions mopts;
        mopts.intervalMs = opts.getUint("metrics-interval-ms", 0);
        mopts.jsonlPath = opts.getString("metrics-out");
        metrics::configureMetrics(mopts);

        std::string tracePath = opts.getString("trace");
        if (!tracePath.empty())
            trace = TraceSpec::file(tracePath,
                                    opts.getBool("trace-tolerant"));

        schemeArg = opts.getString("scheme");
        if (schemeArg == "help") {
            std::cout << schemeHelpText();
            std::exit(0);
        }

        workers = static_cast<unsigned>(opts.getUint("workers", 0));
        workerBin = opts.getString("worker-bin");
        workerFaults = opts.getString("worker-faults");
    } catch (const SimError &e) {
        std::cerr << "error (" << errorKindName(e.kind())
                  << "): " << e.what() << "\n";
        std::exit(1);
    }

    /**
     * The --scheme list as full registry selections (token + knob
     * values), or @p fallback when the flag is absent. Comma-split,
     * except that a "knob=val" segment with no ':' attaches to the
     * preceding selection — so "domino:history=65536,replay=2,isb"
     * is two selections. Throws ConfigError on unknown tokens/knobs.
     */
    std::vector<SchemeSelection>
    schemeSelections(const std::vector<std::string> &fallback) const
    {
        std::vector<std::string> specs;
        if (schemeArg.empty()) {
            specs = fallback;
        } else {
            std::string seg;
            for (char c : schemeArg + ",") {
                if (c != ',') {
                    seg += c;
                    continue;
                }
                if (!seg.empty()) {
                    bool knobSeg =
                        seg.find('=') != std::string::npos &&
                        seg.find(':') == std::string::npos;
                    if (knobSeg && !specs.empty())
                        specs.back() +=
                            (specs.back().find(':') ==
                                     std::string::npos
                                 ? ":"
                                 : ",") +
                            seg;
                    else
                        specs.push_back(seg);
                }
                seg.clear();
            }
        }
        std::vector<SchemeSelection> out;
        out.reserve(specs.size());
        for (const std::string &s : specs)
            out.push_back(parseSchemeSpec(s));
        return out;
    }

    /**
     * A Builder pre-loaded with this bench's cross-cutting inputs
     * (instruction scale, --trace replay); start every spec here so
     * CLI-level knobs apply uniformly.
     */
    RunSpec::Builder
    spec() const
    {
        RunSpec::Builder b;
        b.instrScale(scale);
        b.baseSeed(seed);
        if (trace.enabled())
            b.trace(trace);
        return b;
    }

    /**
     * Run a batch of specs on the --jobs pool, in input order, inside
     * per-run failure domains: a corrupt trace, a thrown SimError or
     * a deadline overrun fails that run alone. Failures are reported
     * on stderr and their result slots are zero; check exitCode().
     */
    std::vector<SimResults>
    run(const std::vector<RunSpec> &specs) const
    {
        std::vector<RunOutcome> outcomes;
        try {
            if (workers > 0) {
                CampaignOptions campaign;
                campaign.batch = batch;
                campaign.workers = workers;
                campaign.workerCmd = workerBin;
                campaign.workerFaults = workerFaults;
                outcomes = runCampaign(specs, campaign);
            } else {
                outcomes = runBatch(specs, batch);
            }
        } catch (const SimError &e) {
            // Campaign-level misconfiguration — most commonly another
            // coordinator holding the manifest lock. Fail the whole
            // bench fast with the message, not a zero-filled table.
            std::cerr << "bench: " << e.what() << "\n";
            std::exit(1);
        }
        std::vector<SimResults> results(outcomes.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            ++statusCounts[outcomes[i].status];
            if (outcomes[i].ok()) {
                results[i] = outcomes[i].results;
                continue;
            }
            ++failures;
            std::cerr << "run " << i << "/" << outcomes.size()
                      << " " << runStatusName(outcomes[i].status)
                      << " after " << outcomes[i].attempts
                      << " attempt(s): " << outcomes[i].error
                      << "\n";
        }
        return results;
    }

    /**
     * 0 when every run so far completed, 1 otherwise — in which case
     * a per-status summary line goes to stderr so a campaign's exit
     * status is explained even when the failure scroll is long gone.
     */
    int
    exitCode() const
    {
        if (failures == 0)
            return 0;
        std::cerr << "campaign status:";
        for (const auto &[status, n] : statusCounts)
            std::cerr << " " << runStatusName(status) << " " << n;
        std::cerr << "\n";
        return 1;
    }

    /** Emit a finished table in the chosen format. */
    void
    emit(const Table &table) const
    {
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::cout << "\n";
    }

    Options opts;
    double scale = 1.0;
    bool csv = false;
    unsigned jobs = 0;     //!< 0 = hardware concurrency
    std::uint64_t seed = 1; //!< --seed base RNG seed for every run
    BatchOptions batch;            //!< retry / timeout / checkpoint knobs
    TraceSpec trace;               //!< --trace replay input (may be unset)
    std::string schemeArg;         //!< raw --scheme value
    unsigned workers = 0;          //!< --workers process count (0 = in-proc)
    std::string workerBin;         //!< --worker-bin override
    std::string workerFaults;      //!< --worker-faults chaos schedule
    mutable unsigned failures = 0; //!< non-Ok outcomes seen by run()
    mutable std::map<RunStatus, unsigned> statusCounts;
};

/** Speedup of @p x over @p base (paper's "performance improvement"). */
inline double
speedup(const SimResults &base, const SimResults &x)
{
    return base.ipc > 0 ? x.ipc / base.ipc : 0.0;
}

/** Table label of @p sel: its scheme's legend name ("next-4-lines
 *  (tagged)"), plus any explicit knobs. */
inline std::string
schemeLabel(const SchemeSelection &sel)
{
    std::string label =
        SchemeRegistry::instance().at(sel.token).displayName;
    if (!sel.knobs.empty())
        label.append(":").append(sel.knobs.canonical());
    return label;
}

/** The prefetching schemes compared in Figures 5-9, as registry
 *  tokens (the --scheme default of the figure benches). */
inline const std::vector<std::string> kPaperSchemes = {
    "nl-miss", "nl-tagged", "n4l", "discontinuity"};

} // namespace ipref

#endif // IPREF_BENCH_BENCH_COMMON_HH
