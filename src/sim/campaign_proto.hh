/**
 * @file
 * The coordinator <-> worker wire protocol: line-delimited JSON over
 * a pipe pair, one message per line.
 *
 *   coordinator -> worker:  config, run
 *   worker -> coordinator:  hello, heartbeat, outcome
 *
 * A worker says hello, takes one config, then answers each run with
 * one outcome; heartbeats carry its instruction count while it lives.
 * Nothing else travels: the coordinator ends a worker by closing its
 * stdin (idle) or with SIGTERM (a drain), and a worker whose
 * heartbeat write fails knows the coordinator is gone.
 *
 * Specs travel as full JSON (schemes and workloads by registry token,
 * doubles as bit-pattern hex so the fingerprint round-trips exactly);
 * the worker recomputes fingerprintSpec() on arrival and refuses a
 * spec whose fingerprint disagrees with the dispatch, which turns any
 * serialization drift into a loud per-run failure instead of silently
 * checkpointing results under the wrong key.
 *
 * Parsing never throws: a truncated or corrupt line (a worker died
 * mid-write, a chaos fault fired) comes back as an Expected error the
 * coordinator counts and survives.
 */

#ifndef IPREF_SIM_CAMPAIGN_PROTO_HH
#define IPREF_SIM_CAMPAIGN_PROTO_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hh"
#include "util/error.hh"

namespace ipref
{

struct JsonValue;

/** Exact JSON serialization of a RunSpec (see specFromJson). */
std::string specToJson(const RunSpec &spec);

/**
 * Inverse of specToJson. The result is re-validated through
 * RunSpec::Builder::build(), so a malformed spec fails here, not
 * half-way into a simulation.
 */
Expected<RunSpec> specFromJson(const JsonValue &v);

/** Execution knobs the coordinator pushes to each worker at spawn. */
struct WorkerConfig
{
    bool wantReport = false;        //!< buffer JSON reports per run
    std::uint64_t intervalInstrs = 0;
    std::uint64_t traceCapacity = 0;
    std::uint64_t profileSites = 0;
    unsigned maxAttempts = 3;       //!< in-worker transient retries
    std::uint64_t retryBaseMs = 10;
    std::uint64_t retryCapMs = 1000;
    std::uint64_t runTimeoutMs = 0; //!< per-run deadline inside worker
    std::uint64_t heartbeatMs = 100;
};

/** One parsed protocol line. Fields are valid per `type`. */
struct ProtoMessage
{
    enum class Type : std::uint8_t
    {
        Hello,     //!< worker up
        Config,    //!< execution knobs: config
        Run,       //!< dispatch: id, fingerprint, priorAttempts, spec
        Outcome,   //!< result: id, fingerprint, outcome
        Heartbeat, //!< liveness: instrs
    };

    Type type = Type::Hello;
    std::int64_t id = -1;         //!< spec index (Run / Outcome)
    std::uint64_t fingerprint = 0;
    unsigned priorAttempts = 0;
    RunSpec spec;
    RunOutcome outcome;           //!< incl. results + jsonReport
    std::uint64_t instrs = 0;     //!< worker-lifetime instructions
    WorkerConfig config;
};

// Message builders: one complete line each, without the trailing
// newline (the transport appends it).
std::string helloLine();
std::string configLine(const WorkerConfig &cfg);
std::string runLine(std::int64_t id, std::uint64_t fingerprint,
                    unsigned priorAttempts, const RunSpec &spec);
std::string outcomeLine(std::int64_t id, std::uint64_t fingerprint,
                        const RunOutcome &outcome);
std::string heartbeatLine(std::uint64_t instrs);

/** Parse one line; never throws. */
Expected<ProtoMessage> parseProtoLine(const std::string &line);

// Transport: both ends frame messages as lines on a pipe.

/** Write all of @p data to @p fd, retrying EINTR; false on a dead pipe. */
bool writeAll(int fd, std::string_view data);

/**
 * Cut every complete line off the front of @p buf (a pipe's read
 * buffer) and return them without their newlines, empty lines
 * dropped; a partial trailing line stays in @p buf for the next read.
 */
std::vector<std::string> takeLines(std::string &buf);

} // namespace ipref

#endif // IPREF_SIM_CAMPAIGN_PROTO_HH
