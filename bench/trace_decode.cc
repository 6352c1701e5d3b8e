/**
 * @file
 * Trace-decode microbenchmark: records/second sustained by the v3
 * mmap reader.
 *
 * A synthetic DB workload stream is written once to a scratch
 * directory, then drained through openTraceReader() with large
 * nextBatch() reads. Best-of---reps throughput lands in a JSON summary
 * (default BENCH_trace_decode.json) that CI compares against the
 * checked-in floor with scripts/bench_compare.py.
 *
 * Usage:
 *   trace_decode [--records N] [--reps N] [--dir PATH] [--out FILE]
 *                [--csv]
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "trace/trace_file.hh"
#include "trace/trace_v3.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/table.hh"
#include "workload/presets.hh"

using namespace ipref;

namespace
{

struct Sample
{
    std::string label;
    double mrecPerSec = 0.0; //!< million records / second
    double seconds = 0.0;
    std::uint64_t records = 0;
    std::uint64_t fileBytes = 0;
};

/** Write @p n records of a DB workload stream as a v3 trace. */
std::uint64_t
writeTrace(const std::string &path, std::uint64_t n)
{
    auto wl = makeWorkload(WorkloadKind::DB, 0);
    TraceFileWriter writer(path);
    InstrRecord rec;
    for (std::uint64_t i = 0; i < n && wl->next(rec); ++i)
        writer.write(rec);
    writer.close();
    return writer.count();
}

std::uint64_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

/** Drain @p path once; returns records decoded, sets @p seconds. */
std::uint64_t
drainOnce(const std::string &path, double &seconds)
{
    auto reader = openTraceReader(path);
    std::vector<InstrRecord> buf(8192);
    std::uint64_t total = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        std::size_t got = reader->nextBatch(
            std::span<InstrRecord>(buf.data(), buf.size()));
        total += got;
        if (got < buf.size())
            break;
    }
    seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    return total;
}

Sample
measure(const std::string &label, const std::string &path,
        unsigned reps)
{
    Sample best;
    best.label = label;
    best.fileBytes = fileSize(path);
    for (unsigned rep = 0; rep < reps; ++rep) {
        double seconds = 0.0;
        std::uint64_t records = drainOnce(path, seconds);
        double mrps = seconds > 0
                          ? static_cast<double>(records) / seconds / 1e6
                          : 0.0;
        if (mrps > best.mrecPerSec) {
            best.mrecPerSec = mrps;
            best.seconds = seconds;
            best.records = records;
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opts(argc, argv);
    std::uint64_t records = opts.getUint("records", 2'000'000);
    unsigned reps = static_cast<unsigned>(opts.getUint("reps", 5));
    std::string dir = opts.getString("dir", "/tmp");
    std::string out_path =
        opts.getString("out", "BENCH_trace_decode.json");

    std::string path = dir + "/bench_decode_v3.trc";
    records = writeTrace(path, records);
    Sample s = measure("v3-mmap", path, reps);

    Table t("Trace decode throughput (" + std::to_string(records) +
            " records, best of " + std::to_string(reps) + ")");
    t.header({"Reader", "Mrec/s", "seconds", "file MB", "B/record"});
    t.row({s.label, Table::num(s.mrecPerSec, 2),
           Table::num(s.seconds, 4),
           Table::num(static_cast<double>(s.fileBytes) / 1e6, 2),
           Table::num(static_cast<double>(s.fileBytes) /
                          static_cast<double>(s.records ? s.records : 1),
                      2)});
    if (opts.getBool("csv"))
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    std::ofstream out(out_path);
    if (!out)
        ipref_fatal("cannot write decode report to '%s'",
                    out_path.c_str());
    out << "{\n  \"benchmark\": \"trace_decode\",\n"
        << "  \"records\": " << records << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"readers\": [\n"
        << "    {\"reader\": \"" << s.label
        << "\", \"mrec_per_sec\": " << s.mrecPerSec
        << ", \"seconds\": " << s.seconds
        << ", \"file_bytes\": " << s.fileBytes << "}\n"
        << "  ]\n}\n";
    std::cout << "\ndecode report written to " << out_path << "\n";

    std::remove(path.c_str());
    return 0;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
