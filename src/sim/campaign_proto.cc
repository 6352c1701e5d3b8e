#include "sim/campaign_proto.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "prefetch/scheme_registry.hh"
#include "util/json.hh"
#include "workload/presets.hh"

namespace ipref
{

namespace
{

/** Bit-exact double encoding: JSON numbers round, hex bits do not. */
std::string
doubleBits(double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return jsonHex(bits);
}

double
bitsToDouble(std::uint64_t bits)
{
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

bool
boolOr(const JsonValue &v, const char *key, bool def)
{
    auto it = v.fields.find(key);
    return it == v.fields.end() || it->second.kind != JsonValue::Bool
               ? def
               : it->second.boolean;
}

std::string
jsonBool(bool b)
{
    return b ? "true" : "false";
}

} // namespace

std::string
specToJson(const RunSpec &spec)
{
    const TraceSpec &trace = spec.trace;

    std::ostringstream os;
    os << "{\"cmp\": " << jsonBool(spec.cmp) << ", \"workloads\": [";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i)
        os << (i ? ", " : "")
           << jsonString(workloadName(spec.workloads[i]));
    os << "], \"scheme\": " << jsonString(spec.schemeToken)
       << ", \"scheme_knobs\": " << jsonString(spec.schemeKnobs.canonical())
       << ", \"degree\": " << spec.degree
       << ", \"table_entries\": " << spec.tableEntries
       << ", \"target_ways\": " << spec.targetWays
       << ", \"bypass_l2\": " << jsonBool(spec.bypassL2)
       << ", \"ideal_eliminate\": [";
    for (std::size_t i = 0; i < spec.idealEliminate.size(); ++i)
        os << (i ? ", " : "") << jsonBool(spec.idealEliminate[i]);
    os << "], \"confidence_filter\": "
       << jsonBool(spec.useConfidenceFilter)
       << ", \"history_size\": " << spec.historySize
       << ", \"queue_size\": " << spec.queueSize
       << ", \"mem_gb_bits\": "
       << jsonString(doubleBits(spec.memGbPerSec))
       << ", \"functional\": " << jsonBool(spec.functional)
       << ", \"l2_bytes\": " << jsonString(jsonHex(spec.l2Bytes))
       << ", \"l1i_bytes\": " << jsonString(jsonHex(spec.l1iBytes))
       << ", \"l1i_assoc\": " << spec.l1iAssoc
       << ", \"line_bytes\": " << spec.lineBytes
       << ", \"instr_scale_bits\": "
       << jsonString(doubleBits(spec.instrScale))
       << ", \"base_seed\": " << jsonString(jsonHex(spec.baseSeed))
       << ", \"trace\": {\"path\": " << jsonString(trace.path)
       << ", \"preset\": " << jsonString(trace.preset)
       << ", \"loop\": " << jsonBool(trace.loop)
       << ", \"tolerant\": " << jsonBool(trace.tolerant)
       << ", \"shared\": " << jsonBool(trace.shared) << "}"
       << ", \"fault_at_instr\": "
       << jsonString(jsonHex(spec.faultAtInstr))
       << ", \"fault_transient\": " << jsonBool(spec.faultTransient)
       << ", \"fault_attempts\": " << spec.faultAttempts << "}";
    return os.str();
}

Expected<RunSpec>
specFromJson(const JsonValue &v)
{
    if (v.kind != JsonValue::Object)
        return SimError(SimError::Kind::Io,
                        "spec JSON: not an object");
    try {
        RunSpec s;
        s.cmp = boolOr(v, "cmp", true);
        s.workloads.clear();
        for (const JsonValue &w : v.at("workloads").items)
            s.workloads.push_back(parseWorkloadKind(w.str));
        SchemeSelection scheme = parseSchemeSpec(
            v.at("scheme").str + ":" + v.stringOr("scheme_knobs", ""));
        s.schemeToken = scheme.token;
        s.schemeKnobs = std::move(scheme.knobs);
        s.degree = v.intOr("degree", 4u);
        s.tableEntries = v.intOr("table_entries", 8192u);
        s.targetWays = v.intOr("target_ways", 2u);
        s.bypassL2 = boolOr(v, "bypass_l2", false);
        const JsonValue &elim = v.at("ideal_eliminate");
        if (elim.items.size() != s.idealEliminate.size())
            return SimError(SimError::Kind::Io,
                            "spec JSON: bad ideal_eliminate arity");
        for (std::size_t i = 0; i < s.idealEliminate.size(); ++i)
            s.idealEliminate[i] = elim.items[i].boolean;
        s.useConfidenceFilter = boolOr(v, "confidence_filter", false);
        s.historySize = v.intOr("history_size", -1);
        s.queueSize = v.intOr("queue_size", -1);
        s.memGbPerSec = bitsToDouble(v.at("mem_gb_bits").asUint());
        s.functional = boolOr(v, "functional", false);
        s.l2Bytes = v.at("l2_bytes").asUint();
        s.l1iBytes = v.at("l1i_bytes").asUint();
        s.l1iAssoc = v.intOr("l1i_assoc", 4u);
        s.lineBytes = v.intOr("line_bytes", 64u);
        s.instrScale =
            bitsToDouble(v.at("instr_scale_bits").asUint());
        s.baseSeed = v.at("base_seed").asUint();
        const JsonValue &t = v.at("trace");
        s.trace.path = t.stringOr("path", "");
        s.trace.preset = t.stringOr("preset", "");
        s.trace.loop = boolOr(t, "loop", true);
        s.trace.tolerant = boolOr(t, "tolerant", false);
        s.trace.shared = boolOr(t, "shared", true);
        s.faultAtInstr = v.at("fault_at_instr").asUint();
        s.faultTransient = boolOr(v, "fault_transient", false);
        s.faultAttempts = v.intOr("fault_attempts", 0u);
        // Re-validate exactly as a locally built spec would be.
        return RunSpec::Builder(std::move(s)).build();
    } catch (const std::exception &e) {
        return SimError(SimError::Kind::Io,
                        std::string("spec JSON: ") + e.what());
    }
}

std::string
helloLine()
{
    return "{\"type\": \"hello\"}";
}

std::string
configLine(const WorkerConfig &cfg)
{
    std::ostringstream os;
    os << "{\"type\": \"config\", \"want_report\": "
       << jsonBool(cfg.wantReport) << ", \"interval_instrs\": "
       << jsonString(jsonHex(cfg.intervalInstrs))
       << ", \"trace_capacity\": "
       << jsonString(jsonHex(cfg.traceCapacity))
       << ", \"profile_sites\": "
       << jsonString(jsonHex(cfg.profileSites))
       << ", \"max_attempts\": " << cfg.maxAttempts
       << ", \"retry_base_ms\": " << cfg.retryBaseMs
       << ", \"retry_cap_ms\": " << cfg.retryCapMs
       << ", \"run_timeout_ms\": " << cfg.runTimeoutMs
       << ", \"heartbeat_ms\": " << cfg.heartbeatMs << "}";
    return os.str();
}

std::string
runLine(std::int64_t id, std::uint64_t fingerprint,
        unsigned priorAttempts, const RunSpec &spec)
{
    std::ostringstream os;
    os << "{\"type\": \"run\", \"id\": " << id
       << ", \"fingerprint\": " << jsonString(jsonHex(fingerprint))
       << ", \"prior_attempts\": " << priorAttempts
       << ", \"spec\": " << specToJson(spec) << "}";
    return os.str();
}

std::string
outcomeLine(std::int64_t id, std::uint64_t fingerprint,
            const RunOutcome &outcome)
{
    std::ostringstream os;
    os << "{\"type\": \"outcome\", \"id\": " << id
       << ", \"fingerprint\": " << jsonString(jsonHex(fingerprint));
    writeOutcomeFields(os, outcome);
    os << "}";
    return os.str();
}

std::string
heartbeatLine(std::uint64_t instrs)
{
    return "{\"type\": \"heartbeat\", \"instrs\": " +
           jsonString(jsonHex(instrs)) + "}";
}

Expected<ProtoMessage>
parseProtoLine(const std::string &line)
{
    try {
        JsonValue v = parseJson(line);
        std::string type = v.stringOr("type", "");
        ProtoMessage m;
        if (type == "hello") {
            m.type = ProtoMessage::Type::Hello;
        } else if (type == "config") {
            m.type = ProtoMessage::Type::Config;
            m.config.wantReport = boolOr(v, "want_report", false);
            m.config.intervalInstrs =
                v.at("interval_instrs").asUint();
            m.config.traceCapacity = v.at("trace_capacity").asUint();
            m.config.profileSites = v.at("profile_sites").asUint();
            m.config.maxAttempts = v.intOr("max_attempts", 3u);
            m.config.retryBaseMs =
                v.intOr<std::uint64_t>("retry_base_ms", 10);
            m.config.retryCapMs =
                v.intOr<std::uint64_t>("retry_cap_ms", 1000);
            m.config.runTimeoutMs =
                v.intOr<std::uint64_t>("run_timeout_ms", 0);
            m.config.heartbeatMs =
                v.intOr<std::uint64_t>("heartbeat_ms", 100);
        } else if (type == "run") {
            m.type = ProtoMessage::Type::Run;
            m.id = v.intOr<std::int64_t>("id", -1);
            m.fingerprint = v.at("fingerprint").asUint();
            m.priorAttempts = v.intOr("prior_attempts", 0u);
            Expected<RunSpec> spec = specFromJson(v.at("spec"));
            if (!spec.ok())
                return spec.error();
            m.spec = std::move(spec.value());
        } else if (type == "outcome") {
            m.type = ProtoMessage::Type::Outcome;
            m.id = v.intOr<std::int64_t>("id", -1);
            m.fingerprint = v.at("fingerprint").asUint();
            Expected<RunOutcome> outcome = outcomeFromJson(v);
            if (!outcome.ok())
                return outcome.error();
            m.outcome = std::move(outcome.value());
        } else if (type == "heartbeat") {
            m.type = ProtoMessage::Type::Heartbeat;
            m.instrs = v.at("instrs").asUint();
        } else {
            return SimError(SimError::Kind::Io,
                            "protocol: unknown message type '" + type +
                                "'");
        }
        return m;
    } catch (const std::exception &e) {
        return SimError(SimError::Kind::Io,
                        std::string("protocol: bad line: ") +
                            e.what());
    }
}

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        ssize_t n = ::write(fd, data.data(), data.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

std::vector<std::string>
takeLines(std::string &buf)
{
    std::vector<std::string> lines;
    std::size_t start = 0, nl;
    while ((nl = buf.find('\n', start)) != std::string::npos) {
        if (nl > start)
            lines.push_back(buf.substr(start, nl - start));
        start = nl + 1;
    }
    buf.erase(0, start);
    return lines;
}

} // namespace ipref
