/**
 * @file
 * TraceSpec: the value type naming one instruction-stream input.
 *
 * RunSpec / SystemConfig name their input with this: a spec either
 * points at a binary trace file (replayed on every core) or names a
 * synthetic workload preset ("db", "tpcw", "japp", "web", "mixed"),
 * and carries the replay
 * knobs (loop on exhaustion, tolerant salvage, shared decode through
 * the process-wide TraceCache).
 */

#ifndef IPREF_TRACE_TRACE_SPEC_HH
#define IPREF_TRACE_TRACE_SPEC_HH

#include <string>

namespace ipref
{

/** Where a simulation's instruction stream comes from. */
struct TraceSpec
{
    /** Binary trace file to replay (empty = synthetic workloads). */
    std::string path;

    /**
     * Synthetic workload preset name ("db", "mixed", ...); only
     * consulted when path is empty. Empty = use the RunSpec /
     * SystemConfig workload list as-is.
     */
    std::string preset;

    /** Wrap to the beginning when the trace file is exhausted. */
    bool loop = true;

    /** Salvage the intact prefix of a damaged file (see trace_file). */
    bool tolerant = false;

    /**
     * Decode through the process-wide TraceCache so concurrent runs
     * replaying the same file share one mapping and one decode. Turn
     * off to give every core its own streaming reader (constant
     * memory, one decode per reader).
     */
    bool shared = true;

    /** Does this spec name a trace file to replay? */
    bool enabled() const { return !path.empty(); }

    /** A file-replay spec with default knobs. */
    static TraceSpec
    file(std::string tracePath, bool tolerantRead = false)
    {
        TraceSpec s;
        s.path = std::move(tracePath);
        s.tolerant = tolerantRead;
        return s;
    }

    /** A synthetic-workload spec ("db", ..., "mixed"). */
    static TraceSpec
    workloadPreset(std::string name)
    {
        TraceSpec s;
        s.preset = std::move(name);
        return s;
    }
};

} // namespace ipref

#endif // IPREF_TRACE_TRACE_SPEC_HH
