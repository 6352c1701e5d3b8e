/**
 * @file
 * Trace-path microbenchmark: records/second sustained by chunk
 * sealing, the trace writer, the mmap reader, the shared-cache load
 * and replay from the shared cache.
 *
 * A synthetic DB workload stream is generated once in memory, then
 * timed five ways: sealed and checksummed chunk by chunk into one
 * in-memory buffer with no I/O ("seal": the writer's and the stream
 * spill's work without their writes, so the row does not move with
 * the page cache of --dir), written by TraceFileWriter ("write"), drained
 * through openTraceReader() with large nextBatch() reads ("mmap"),
 * loaded by TraceCache::acquire() into a cleared cache
 * ("cache-load"), and drained from one loaded entry through a
 * CachedTraceSource in nextBatch(512) reads, the replay loop's batch
 * ("cache-replay"). The cache rows also report the entry's resident
 * bytes per record (8 when every chunk packs). Best-of---reps
 * throughput of each lands in a JSON summary (default
 * BENCH_trace_decode.json) that CI compares against the checked-in
 * floor with scripts/bench_compare.py.
 *
 * Usage:
 *   trace_decode [--records N] [--reps N] [--dir PATH] [--out FILE]
 *                [--csv]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "trace/packed_chunk.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_file.hh"
#include "util/crc32.hh"
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
    double residentPerRecord = 0.0; //!< cache rows: resident B/record
};

/** The first @p n records of a DB workload stream. */
std::vector<InstrRecord>
generate(std::uint64_t n)
{
    auto wl = makeWorkload(WorkloadKind::DB, 0);
    std::vector<InstrRecord> recs;
    recs.reserve(static_cast<std::size_t>(n));
    InstrRecord rec;
    while (recs.size() < n && wl->next(rec))
        recs.push_back(rec);
    return recs;
}

std::uint64_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

/** One timed pass: returns the records it moved. */
using Pass = std::function<std::uint64_t()>;

/** Best throughput of @p reps runs of @p pass. */
Sample
measure(const std::string &label, unsigned reps, const Pass &pass)
{
    Sample best;
    best.label = label;
    for (unsigned rep = 0; rep < reps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t records = pass();
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
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

/** Where sealOnce() leaves its checksums, so none is optimized out. */
volatile std::uint32_t g_sealCrc = 0;

/** Seal and checksum @p recs chunk by chunk into one buffer. */
std::uint64_t
sealOnce(const std::vector<InstrRecord> &recs)
{
    static std::vector<unsigned char> chunk(traceChunkRecords *
                                            sizeof(InstrRecord));
    std::uint32_t crc = 0;
    for (std::size_t at = 0; at < recs.size(); at += traceChunkRecords) {
        const std::size_t n =
            std::min(traceChunkRecords, recs.size() - at);
        ChunkEntry e = sealChunk({recs.data() + at, n}, chunk.data());
        crc ^= crc32Fast(chunk.data(), n * chunkRecordBytes(e.packed));
    }
    g_sealCrc = crc;
    return recs.size();
}

/** Write @p recs as a trace file at @p path. */
std::uint64_t
writeOnce(const std::string &path, const std::vector<InstrRecord> &recs)
{
    TraceFileWriter writer(path);
    for (const InstrRecord &rec : recs)
        writer.write(rec);
    writer.close();
    return writer.count();
}

/** Drain @p path once through the mmap reader. */
std::uint64_t
drainOnce(const std::string &path)
{
    auto reader = openTraceReader(path);
    std::vector<InstrRecord> buf(8192);
    std::uint64_t total = 0;
    for (;;) {
        std::size_t got = reader->nextBatch(
            std::span<InstrRecord>(buf.data(), buf.size()));
        total += got;
        if (got < buf.size())
            return total;
    }
}

/** Load @p path into a cleared TraceCache, then drop it again. */
std::uint64_t
loadOnce(const std::string &path)
{
    TraceCache::instance().clear();
    std::uint64_t records = TraceCache::instance().acquire(path)->size();
    TraceCache::instance().clear();
    return records;
}

/** Drain @p trace once through a CachedTraceSource, 512 at a time. */
std::uint64_t
replayOnce(const std::shared_ptr<const DecodedTrace> &trace)
{
    CachedTraceSource src(trace);
    std::vector<InstrRecord> buf(512);
    std::uint64_t total = 0;
    for (;;) {
        std::size_t got = src.nextBatch(
            std::span<InstrRecord>(buf.data(), buf.size()));
        total += got;
        if (got < buf.size())
            return total;
    }
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

    std::string path = dir + "/bench_decode.trc";
    std::vector<InstrRecord> recs = generate(records);
    records = recs.size();
    std::vector<Sample> samples = {
        measure("seal", reps, [&] { return sealOnce(recs); }),
        measure("write", reps, [&] { return writeOnce(path, recs); }),
        measure("mmap", reps, [&] { return drainOnce(path); }),
        measure("cache-load", reps, [&] { return loadOnce(path); }),
    };
    TraceCache::instance().clear();
    auto trace = TraceCache::instance().acquire(path);
    samples.push_back(
        measure("cache-replay", reps, [&] { return replayOnce(trace); }));
    const double resident = static_cast<double>(trace->residentBytes()) /
                            static_cast<double>(std::max<std::size_t>(
                                trace->size(), 1));
    for (Sample &s : samples)
        if (s.label.starts_with("cache-"))
            s.residentPerRecord = resident;
    trace.reset();
    TraceCache::instance().clear();
    const std::uint64_t fileBytes = fileSize(path);

    Table t("Trace path throughput (" + std::to_string(records) +
            " records, best of " + std::to_string(reps) + ")");
    t.header({"Path", "Mrec/s", "seconds", "file MB", "B/record",
              "resident B/record"});
    for (const Sample &s : samples)
        t.row({s.label, Table::num(s.mrecPerSec, 2),
               Table::num(s.seconds, 4),
               Table::num(static_cast<double>(fileBytes) / 1e6, 2),
               Table::num(static_cast<double>(fileBytes) /
                              static_cast<double>(
                                  s.records ? s.records : 1),
                          2),
               s.residentPerRecord > 0
                   ? Table::num(s.residentPerRecord, 2)
                   : std::string("-")});
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
        << "  \"paths\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i)
        out << "    {\"name\": \"" << samples[i].label
            << "\", \"mrec_per_sec\": " << samples[i].mrecPerSec
            << ", \"seconds\": " << samples[i].seconds
            << ", \"file_bytes\": " << fileBytes
            << (samples[i].residentPerRecord > 0
                    ? ", \"resident_bytes_per_record\": " +
                          std::to_string(samples[i].residentPerRecord)
                    : std::string())
            << "}"
            << (i + 1 < samples.size() ? ",\n" : "\n");
    out << "  ]\n}\n";
    std::cout << "\ndecode report written to " << out_path << "\n";

    std::remove(path.c_str());
    return 0;
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
