#include "sim/campaign_proto.hh"

#include <cstring>
#include <sstream>

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
       << ", \"scheme_knobs\": " << jsonString(spec.schemeKnobs)
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
        s.schemeToken = v.at("scheme").str;
        s.schemeKnobs = v.stringOr("scheme_knobs", "");
        s.degree = static_cast<unsigned>(v.numberOr("degree", 4));
        s.tableEntries = static_cast<unsigned>(
            v.numberOr("table_entries", 8192));
        s.targetWays =
            static_cast<unsigned>(v.numberOr("target_ways", 2));
        s.bypassL2 = boolOr(v, "bypass_l2", false);
        const JsonValue &elim = v.at("ideal_eliminate");
        if (elim.items.size() != s.idealEliminate.size())
            return SimError(SimError::Kind::Io,
                            "spec JSON: bad ideal_eliminate arity");
        for (std::size_t i = 0; i < s.idealEliminate.size(); ++i)
            s.idealEliminate[i] = elim.items[i].boolean;
        s.useConfidenceFilter = boolOr(v, "confidence_filter", false);
        s.historySize =
            static_cast<int>(v.numberOr("history_size", -1));
        s.queueSize = static_cast<int>(v.numberOr("queue_size", -1));
        s.memGbPerSec = bitsToDouble(v.at("mem_gb_bits").asUint());
        s.functional = boolOr(v, "functional", false);
        s.l2Bytes = v.at("l2_bytes").asUint();
        s.l1iBytes = v.at("l1i_bytes").asUint();
        s.l1iAssoc = static_cast<unsigned>(v.numberOr("l1i_assoc", 4));
        s.lineBytes =
            static_cast<unsigned>(v.numberOr("line_bytes", 64));
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
        s.faultAttempts = static_cast<unsigned>(
            v.numberOr("fault_attempts", 0));
        // Re-validate exactly as a locally built spec would be.
        return RunSpec::Builder(std::move(s)).build();
    } catch (const std::exception &e) {
        return SimError(SimError::Kind::Io,
                        std::string("spec JSON: ") + e.what());
    }
}

std::string
helloLine(int pid, unsigned spawn)
{
    std::ostringstream os;
    os << "{\"type\": \"hello\", \"pid\": " << pid
       << ", \"spawn\": " << spawn << "}";
    return os.str();
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
heartbeatLine(int pid, std::uint64_t instrs, std::int64_t runningId)
{
    std::ostringstream os;
    os << "{\"type\": \"heartbeat\", \"pid\": " << pid
       << ", \"instrs\": " << jsonString(jsonHex(instrs))
       << ", \"running_id\": " << runningId << "}";
    return os.str();
}

std::string
abortLine()
{
    return "{\"type\": \"abort\"}";
}

std::string
shutdownLine()
{
    return "{\"type\": \"shutdown\"}";
}

std::string
byeLine()
{
    return "{\"type\": \"bye\"}";
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
            m.pid = static_cast<int>(v.numberOr("pid", 0));
            m.spawn = static_cast<unsigned>(v.numberOr("spawn", 0));
        } else if (type == "config") {
            m.type = ProtoMessage::Type::Config;
            m.config.wantReport = boolOr(v, "want_report", false);
            m.config.intervalInstrs =
                v.at("interval_instrs").asUint();
            m.config.traceCapacity = v.at("trace_capacity").asUint();
            m.config.profileSites = v.at("profile_sites").asUint();
            m.config.maxAttempts = static_cast<unsigned>(
                v.numberOr("max_attempts", 3));
            m.config.retryBaseMs = static_cast<std::uint64_t>(
                v.numberOr("retry_base_ms", 10));
            m.config.retryCapMs = static_cast<std::uint64_t>(
                v.numberOr("retry_cap_ms", 1000));
            m.config.runTimeoutMs = static_cast<std::uint64_t>(
                v.numberOr("run_timeout_ms", 0));
            m.config.heartbeatMs = static_cast<std::uint64_t>(
                v.numberOr("heartbeat_ms", 100));
        } else if (type == "run") {
            m.type = ProtoMessage::Type::Run;
            m.id = static_cast<std::int64_t>(v.numberOr("id", -1));
            m.fingerprint = v.at("fingerprint").asUint();
            m.priorAttempts = static_cast<unsigned>(
                v.numberOr("prior_attempts", 0));
            Expected<RunSpec> spec = specFromJson(v.at("spec"));
            if (!spec.ok())
                return spec.error();
            m.spec = std::move(spec.value());
        } else if (type == "outcome") {
            m.type = ProtoMessage::Type::Outcome;
            m.id = static_cast<std::int64_t>(v.numberOr("id", -1));
            m.fingerprint = v.at("fingerprint").asUint();
            Expected<RunOutcome> outcome = outcomeFromJson(v);
            if (!outcome.ok())
                return outcome.error();
            m.outcome = std::move(outcome.value());
        } else if (type == "heartbeat") {
            m.type = ProtoMessage::Type::Heartbeat;
            m.pid = static_cast<int>(v.numberOr("pid", 0));
            m.instrs = v.at("instrs").asUint();
            m.runningId = static_cast<std::int64_t>(
                v.numberOr("running_id", -1));
        } else if (type == "abort") {
            m.type = ProtoMessage::Type::Abort;
        } else if (type == "shutdown") {
            m.type = ProtoMessage::Type::Shutdown;
        } else if (type == "bye") {
            m.type = ProtoMessage::Type::Bye;
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

} // namespace ipref
