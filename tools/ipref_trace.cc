/**
 * @file
 * ipref_trace: inspect, verify and rewrite trace files.
 *
 * Usage:
 *   ipref_trace info IN                     print the record count,
 *                                           packed and raw chunks and
 *                                           bytes/record
 *   ipref_trace verify IN [--tolerant]      decode every record; exit
 *                                           0 iff the file is intact
 *                                           (tolerant: report salvage
 *                                           instead of failing)
 *   ipref_trace convert IN OUT [--tolerant] rewrite IN as OUT
 *
 * convert preserves the record stream exactly, so rewriting an intact
 * capture reproduces it byte for byte; with --tolerant it keeps the
 * intact prefix of a damaged one.
 */

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "trace/trace_file.hh"
#include "util/options.hh"

using namespace ipref;

namespace
{

int
usage()
{
    std::cerr
        << "usage: ipref_trace info IN\n"
        << "       ipref_trace verify IN [--tolerant]\n"
        << "       ipref_trace convert IN OUT [--tolerant]\n";
    return 2;
}

/** Drain @p reader, returning the records delivered. */
std::uint64_t
drain(MappedTraceReader &reader)
{
    std::vector<InstrRecord> buf(8192);
    std::uint64_t total = 0;
    for (;;) {
        std::size_t got = reader.nextBatch(
            std::span<InstrRecord>(buf.data(), buf.size()));
        total += got;
        if (got < buf.size())
            return total;
    }
}

int
cmdInfo(const std::string &path)
{
    auto reader = openTraceReader(path, TraceReadMode::Tolerant);
    std::uint64_t delivered = drain(*reader);

    std::cout << "file:        " << path << "\n";
    std::cout << "records:     " << reader->count() << " (header), "
              << delivered << " decodable\n";
    std::cout << "chunks:      " << reader->packedChunks()
              << " packed, " << reader->rawChunks() << " raw ("
              << traceChunkRecords << " records each)\n";
    std::cout << "size:        " << reader->fileBytes() << " bytes";
    if (delivered > 0)
        std::printf(" (%.2f bytes/record)",
                    static_cast<double>(reader->fileBytes()) /
                        static_cast<double>(delivered));
    std::cout << "\n";
    if (reader->corrupt())
        std::cout << "damage:      " << reader->corruptionDetail()
                  << "\n";
    return reader->corrupt() ? 1 : 0;
}

int
cmdVerify(const std::string &path, bool tolerant)
{
    auto reader = openTraceReader(path, tolerant
                                            ? TraceReadMode::Tolerant
                                            : TraceReadMode::Strict);
    std::uint64_t delivered = drain(*reader);
    if (reader->corrupt()) {
        std::cout << path << ": DAMAGED (salvaged " << delivered
                  << " of " << reader->count() << " records): "
                  << reader->corruptionDetail() << "\n";
        return 1;
    }
    if (delivered != reader->count()) {
        std::cout << path << ": short: decoded " << delivered
                  << " of " << reader->count()
                  << " records promised by the header\n";
        return 1;
    }
    std::cout << path << ": OK (" << delivered << " records)\n";
    return 0;
}

int
cmdConvert(const std::string &in, const std::string &out, bool tolerant)
{
    auto reader = openTraceReader(in, tolerant ? TraceReadMode::Tolerant
                                               : TraceReadMode::Strict);
    TraceFileWriter writer(out);

    std::vector<InstrRecord> buf(8192);
    for (;;) {
        std::size_t got = reader->nextBatch(
            std::span<InstrRecord>(buf.data(), buf.size()));
        for (std::size_t i = 0; i < got; ++i)
            writer.write(buf[i]);
        if (got < buf.size())
            break;
    }
    writer.close();

    std::cout << "converted " << writer.count() << " records: " << in
              << " -> " << out << "\n";
    if (reader->corrupt())
        std::cerr << "warning: input damaged, converted the salvaged "
                  << "prefix (" << reader->corruptionDetail()
                  << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    if (argc < 3)
        return usage();
    std::string cmd = argv[1];

    // The parser reads "--flag OPERAND" as flag=OPERAND, so boolean
    // flags go after the file operands (or use --flag=1); an operand
    // taken as --tolerant's value fails naming the flag. Any other
    // flag is refused.
    Options opts(argc - 1, argv + 1,
                 {{"tolerant", "salvage the intact prefix"}});
    const std::vector<std::string> &pos = opts.positional();
    const bool tolerant = opts.getBool("tolerant");

    if (cmd == "info" && pos.size() == 1)
        return cmdInfo(pos[0]);
    if (cmd == "verify" && pos.size() == 1)
        return cmdVerify(pos[0], tolerant);
    if (cmd == "convert" && pos.size() == 2)
        return cmdConvert(pos[0], pos[1], tolerant);
    return usage();
} catch (const SimError &e) {
    std::cerr << "error (" << errorKindName(e.kind())
              << "): " << e.what() << "\n";
    return 1;
}
