#include "analysis/analyzer.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "util/trace_event.hh"

namespace ipref
{

std::vector<ParsedEvent>
readTraceJsonLines(std::istream &is)
{
    std::vector<ParsedEvent> events;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        ParsedEvent ev;
        try {
            JsonValue v = parseJson(line);
            ev.cycle = v.intOr<std::uint64_t>("cycle", 0);
            ev.type = v.stringOr("type", "unknown");
            if (v.has("core") && !v.at("core").isNull()) {
                ev.hasCore = true;
                ev.core = v.intOr<std::uint16_t>("core", 0);
            }
            if (v.has("addr"))
                ev.addr = v.at("addr").asUint();
            if (v.has("pc"))
                ev.pc = v.at("pc").asUint();
            ev.arg = v.intOr<std::uint64_t>("arg", 0);
            ev.detail = v.intOr<std::uint8_t>("detail", 0);
        } catch (const std::exception &e) {
            throw std::runtime_error("trace line " +
                                     std::to_string(lineno) + ": " +
                                     e.what());
        }
        events.push_back(ev);
    }
    return events;
}

std::vector<ParsedEvent>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read trace file: " + path);
    return readTraceJsonLines(in);
}

TraceAnalysis
analyze(const std::vector<ParsedEvent> &events)
{
    TraceAnalysis a;
    a.events = events.size();

    /** Unresolved issue state, keyed by prefetch id. */
    struct LiveIssue
    {
        std::uint64_t cycle = 0;
        std::uint8_t origin = 0;
        Addr src = 0; //!< trigger site (0 = unattributed)
        Addr dst = 0;
    };
    std::unordered_map<std::uint64_t, LiveIssue> live;
    std::unordered_map<Addr, TraceAnalysis::Site> sites;
    std::map<std::pair<Addr, Addr>, LifecycleTally> edges;

    constexpr std::size_t numOrigins =
        static_cast<std::size_t>(PrefetchOrigin::NumOrigins);

    bool first = true;
    for (const ParsedEvent &ev : events) {
        if (first || ev.cycle < a.firstCycle)
            a.firstCycle = ev.cycle;
        if (first || ev.cycle > a.lastCycle)
            a.lastCycle = ev.cycle;
        first = false;

        if (ev.type == "cache_miss" || ev.type == "cache_hit") {
            std::uint8_t level = traceDetailLevel(ev.detail);
            int tr = traceDetailTransition(ev.detail);
            bool instr = tr >= 0; // transitions ride on I-side events
            if (ev.type == "cache_hit") {
                if (level == traceLevelL1I)
                    ++a.l1iHits;
                continue;
            }
            if (level == traceLevelL1I) {
                ++a.l1iMisses;
                TraceAnalysis::Site &s = sites[ev.addr];
                s.line = ev.addr;
                ++s.misses;
                if (tr >= 0 &&
                    tr < static_cast<int>(
                             a.l1iMissByTransition.size())) {
                    ++a.l1iMissByTransition[static_cast<std::size_t>(
                        tr)];
                    ++s.byTransition[static_cast<std::size_t>(tr)];
                }
            } else if (level == traceLevelL2 && instr) {
                ++a.l2iMisses;
            }
            continue;
        }

        if (ev.type == "fetch_stall") {
            if (ev.detail < kNumCycleBuckets) {
                a.stallCycles[ev.detail] += ev.arg;
                ++a.stallEpisodes[ev.detail];
            }
            continue;
        }

        if (ev.type == "prefetch_issue") {
            ++a.total.issued;
            if (ev.detail < numOrigins)
                ++a.byOrigin[ev.detail].issued;
            LiveIssue li;
            li.cycle = ev.cycle;
            li.origin = ev.detail;
            li.src = ev.pc;
            li.dst = ev.addr;
            live[ev.arg] = li;
            if (ev.detail == static_cast<std::uint8_t>(
                                 PrefetchOrigin::Discontinuity) &&
                ev.pc != 0)
                ++edges[{ev.pc, ev.addr}].issued;
            continue;
        }

        bool useful = ev.type == "prefetch_useful";
        bool useless = ev.type == "prefetch_useless";
        bool replaced = ev.type == "prefetch_replaced";
        if (!useful && !useless && !replaced)
            continue;

        if (useful) {
            ++a.total.useful;
            if (ev.detail < numOrigins)
                ++a.byOrigin[ev.detail].useful;
        } else if (useless) {
            ++a.total.useless;
            if (ev.arg != 0 && ev.detail < numOrigins)
                ++a.byOrigin[ev.detail].useless;
        } else {
            ++a.total.replaced;
            if (ev.detail < numOrigins)
                ++a.byOrigin[ev.detail].replaced;
        }

        auto it = live.find(ev.arg);
        if (it == live.end())
            continue;
        const LiveIssue &li = it->second;
        if (useful && ev.cycle >= li.cycle && ev.cycle > 0)
            a.issueToUseCycles.push_back(ev.cycle - li.cycle);
        if (li.origin == static_cast<std::uint8_t>(
                             PrefetchOrigin::Discontinuity) &&
            li.src != 0) {
            LifecycleTally &e = edges[{li.src, li.dst}];
            if (useful)
                ++e.useful;
            else if (useless)
                ++e.useless;
            else
                ++e.replaced;
        }
        live.erase(it);
    }

    a.hotMissSites.reserve(sites.size());
    for (auto &kv : sites)
        a.hotMissSites.push_back(kv.second);
    std::sort(a.hotMissSites.begin(), a.hotMissSites.end(),
              [](const TraceAnalysis::Site &x,
                 const TraceAnalysis::Site &y) {
                  return x.misses != y.misses ? x.misses > y.misses
                                              : x.line < y.line;
              });

    a.hotEdges.reserve(edges.size());
    for (const auto &kv : edges) {
        TraceAnalysis::Edge e;
        e.src = kv.first.first;
        e.dst = kv.first.second;
        e.tally = kv.second;
        a.hotEdges.push_back(e);
    }
    std::sort(a.hotEdges.begin(), a.hotEdges.end(),
              [](const TraceAnalysis::Edge &x,
                 const TraceAnalysis::Edge &y) {
                  if (x.tally.useless != y.tally.useless)
                      return x.tally.useless > y.tally.useless;
                  if (x.tally.issued != y.tally.issued)
                      return x.tally.issued > y.tally.issued;
                  return std::tie(x.src, x.dst) <
                         std::tie(y.src, y.dst);
              });

    std::sort(a.issueToUseCycles.begin(), a.issueToUseCycles.end());
    return a;
}

Concentration
lineConcentration(std::vector<std::uint64_t> counts,
                  const std::vector<double> &quantiles)
{
    Concentration c;
    c.uniqueLines = counts.size();
    std::sort(counts.rbegin(), counts.rend());
    for (std::uint64_t v : counts)
        c.total += v;
    for (double q : quantiles) {
        std::uint64_t target = static_cast<std::uint64_t>(
            q * static_cast<double>(c.total));
        std::uint64_t acc = 0;
        std::size_t k = 0;
        while (k < counts.size() && acc < target)
            acc += counts[k++];
        c.points.push_back({q, k});
    }
    return c;
}

void
writeIntervalCsv(const std::vector<ParsedEvent> &events,
                 std::ostream &os, std::size_t buckets)
{
    os << "cycle_start,cycle_end,l1i_misses,l1i_hits,pf_issued,"
          "pf_useful,pf_useless\n";
    if (events.empty() || buckets == 0)
        return;
    std::uint64_t lo = events.front().cycle;
    std::uint64_t hi = events.front().cycle;
    for (const ParsedEvent &ev : events) {
        lo = std::min(lo, ev.cycle);
        hi = std::max(hi, ev.cycle);
    }
    std::uint64_t span = hi - lo + 1;
    std::uint64_t width = (span + buckets - 1) / buckets;

    struct Row
    {
        std::uint64_t misses = 0, hits = 0;
        std::uint64_t issued = 0, useful = 0, useless = 0;
    };
    std::vector<Row> rows((span + width - 1) / width);
    for (const ParsedEvent &ev : events) {
        Row &r = rows[(ev.cycle - lo) / width];
        if (ev.type == "cache_miss") {
            if (traceDetailLevel(ev.detail) == traceLevelL1I)
                ++r.misses;
        } else if (ev.type == "cache_hit") {
            if (traceDetailLevel(ev.detail) == traceLevelL1I)
                ++r.hits;
        } else if (ev.type == "prefetch_issue") {
            ++r.issued;
        } else if (ev.type == "prefetch_useful") {
            ++r.useful;
        } else if (ev.type == "prefetch_useless") {
            ++r.useless;
        }
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::uint64_t start = lo + i * width;
        os << start << "," << std::min(hi, start + width - 1) << ","
           << rows[i].misses << "," << rows[i].hits << ","
           << rows[i].issued << "," << rows[i].useful << ","
           << rows[i].useless << "\n";
    }
}

void
writeChromeTrace(const std::vector<ParsedEvent> &events,
                 std::ostream &os)
{
    constexpr std::size_t numOrigins =
        static_cast<std::size_t>(PrefetchOrigin::NumOrigins);

    struct LiveIssue
    {
        std::uint64_t cycle = 0;
        std::uint16_t core = 0;
        std::uint8_t origin = 0;
        Addr addr = 0;
        Addr src = 0;
    };
    std::unordered_map<std::uint64_t, LiveIssue> live;

    /** Cumulative stall cycles per core, rendered as one counter
     *  ("C") track per core so Perfetto draws a stacked area chart
     *  of the fetch-stall breakdown over time. */
    std::unordered_map<std::uint16_t,
                       std::array<std::uint64_t, kNumCycleBuckets>>
        stallCum;

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &obj) {
        os << (first ? "\n" : ",\n") << obj;
        first = false;
    };

    // Metadata: pid = core, tid = prefetch origin (instant events for
    // demand misses ride on tid = numOrigins).
    std::vector<std::uint16_t> coresSeen;
    for (const ParsedEvent &ev : events) {
        if (!ev.hasCore)
            continue;
        if (std::find(coresSeen.begin(), coresSeen.end(), ev.core) ==
            coresSeen.end())
            coresSeen.push_back(ev.core);
    }
    std::sort(coresSeen.begin(), coresSeen.end());
    for (std::uint16_t core : coresSeen) {
        std::ostringstream m;
        m << "{\"ph\":\"M\",\"pid\":" << core
          << ",\"name\":\"process_name\",\"args\":{\"name\":"
          << jsonString("core " + std::to_string(core)) << "}}";
        emit(m.str());
        for (std::size_t o = 0; o <= numOrigins; ++o) {
            std::string tname =
                o < numOrigins
                    ? std::string("prefetch: ") +
                          originName(static_cast<PrefetchOrigin>(o))
                    : std::string("demand misses");
            std::ostringstream t;
            t << "{\"ph\":\"M\",\"pid\":" << core << ",\"tid\":" << o
              << ",\"name\":\"thread_name\",\"args\":{\"name\":"
              << jsonString(tname) << "}}";
            emit(t.str());
        }
    }

    auto slice = [&](const LiveIssue &li, std::uint64_t endCycle,
                     const char *outcome) {
        std::uint64_t dur =
            endCycle > li.cycle ? endCycle - li.cycle : 1;
        std::ostringstream s;
        s << "{\"name\":" << jsonString(outcome)
          << ",\"cat\":\"prefetch\",\"ph\":\"X\",\"ts\":" << li.cycle
          << ",\"dur\":" << dur << ",\"pid\":" << li.core
          << ",\"tid\":" << static_cast<unsigned>(li.origin)
          << ",\"args\":{\"line\":\"" << jsonHex(li.addr)
          << "\",\"trigger\":\"" << jsonHex(li.src) << "\"}}";
        emit(s.str());
    };

    for (const ParsedEvent &ev : events) {
        if (ev.type == "prefetch_issue") {
            LiveIssue li;
            li.cycle = ev.cycle;
            li.core = ev.hasCore ? ev.core : 0;
            li.origin = ev.detail;
            li.addr = ev.addr;
            li.src = ev.pc;
            live[ev.arg] = li;
        } else if (ev.type == "prefetch_useful" ||
                   ev.type == "prefetch_useless" ||
                   ev.type == "prefetch_replaced") {
            auto it = live.find(ev.arg);
            if (it == live.end())
                continue;
            slice(it->second, ev.cycle,
                  ev.type == "prefetch_useful"
                      ? "useful"
                      : ev.type == "prefetch_useless" ? "useless"
                                                      : "replaced");
            live.erase(it);
        } else if (ev.type == "cache_miss" &&
                   traceDetailLevel(ev.detail) == traceLevelL1I) {
            std::ostringstream m;
            m << "{\"name\":\"l1i_miss\",\"cat\":\"demand\",\"ph\":"
                 "\"i\",\"s\":\"t\",\"ts\":"
              << ev.cycle << ",\"pid\":" << (ev.hasCore ? ev.core : 0)
              << ",\"tid\":" << numOrigins << ",\"args\":{\"line\":\""
              << jsonHex(ev.addr) << "\"}}";
            emit(m.str());
        } else if (ev.type == "fetch_stall" &&
                   ev.detail < kNumCycleBuckets) {
            std::uint16_t core = ev.hasCore ? ev.core : 0;
            auto &cum = stallCum[core];
            cum[ev.detail] += ev.arg;
            std::ostringstream c;
            c << "{\"name\":\"fetch stall cycles\",\"ph\":\"C\","
                 "\"ts\":"
              << ev.cycle << ",\"pid\":" << core << ",\"args\":{";
            bool firstArg = true;
            for (std::size_t b = 1; b < kNumCycleBuckets; ++b) {
                c << (firstArg ? "" : ",")
                  << jsonString(cycleBucketName(
                         static_cast<CycleBucket>(b)))
                  << ":" << cum[b];
                firstArg = false;
            }
            c << "}}";
            emit(c.str());
        }
    }

    // Unresolved issues: minimal slices so the view shows them.
    for (const auto &kv : live)
        slice(kv.second, kv.second.cycle + 1, "in-flight");

    os << (first ? "" : "\n") << "]}\n";
}

CrossCheck
crossCheck(const TraceAnalysis &analysis, const JsonValue &report)
{
    CrossCheck cc;
    auto fail = [&cc](const std::string &msg) {
        cc.ok = false;
        cc.mismatches.push_back(msg);
    };
    for (const char *section : {"config", "results", "prefetch"})
        if (!report.has(section))
            fail(std::string(section) + ": missing from the report");
    if (!cc.ok)
        return cc;

    // A report counter (element i of an array counter): one that is
    // missing or malformed is a mismatch of its own, never a zero.
    using Count = std::optional<std::uint64_t>;
    auto counter = [&](const std::string &section, const std::string &key,
                       std::size_t i = std::string::npos) -> Count {
        bool scalar = i == std::string::npos;
        try {
            const JsonValue &v = report.at(section).at(key);
            return (scalar ? v : v.items.at(i)).asUint();
        } catch (const std::exception &) {
            fail(section + "." + key +
                 (scalar ? "" : "[" + std::to_string(i) + "]") +
                 ": missing from the report");
            return std::nullopt;
        }
    };
    auto check = [&](const std::string &what, std::uint64_t fromTrace,
                     Count fromSim) {
        if (fromSim && fromTrace != *fromSim)
            fail(what + ": trace=" + std::to_string(fromTrace) +
                 " sim=" + std::to_string(*fromSim));
    };

    Count issued = counter("results", "pf_issued");
    Count credited = counter("results", "pf_useful");
    Count useless = counter("results", "pf_useless");
    Count uncredited = counter("prefetch", "uncredited_useful");
    Count dropped = counter("prefetch", "dropped");
    Count inFlight = counter("prefetch", "in_flight");
    Count useful;
    if (credited && uncredited)
        useful = *credited + *uncredited;
    check("issued", analysis.total.issued, issued);
    check("useful", analysis.total.useful, useful);
    check("useless", analysis.total.useless, useless);
    check("dropped (replaced in flight)", analysis.total.replaced,
          dropped);
    // in_flight is window-relative: when warm-up-issued prefetches
    // resolve inside the measurement window the simulator's own
    // lifecycle identity does not hold, and neither side's in-flight
    // figure is comparable — only check it on reconciling reports
    // (fresh-system runs, e.g. warmup_instrs = 0).
    if (issued && useful && useless && dropped && inFlight &&
        *issued == *useful + *useless + *dropped + *inFlight)
        check("in_flight", analysis.total.inFlight(), inFlight);

    for (std::size_t i = 0; i < analysis.byOrigin.size(); ++i) {
        std::string name = originName(static_cast<PrefetchOrigin>(i));
        check("by_origin." + name + ".issued",
              analysis.byOrigin[i].issued,
              counter("results", "pf_issued_by_origin", i));
        check("by_origin." + name + ".useful",
              analysis.byOrigin[i].useful,
              counter("results", "pf_useful_by_origin", i));
    }

    // CPI-stack cross-check: the traced fetch_stall episodes re-sum
    // exactly to the simulator's per-bucket ledger, and the derived
    // busy figure (cycles * cores minus every traced stall) matches
    // the reported busy bucket. Skipped for functional runs, which
    // carry no cycle accounting.
    const JsonValue &config = report.at("config");
    if (!config.has("functional") ||
        config.at("functional").kind != JsonValue::Bool) {
        fail("config.functional: missing from the report");
    } else if (!config.at("functional").boolean) {
        std::uint64_t stallSum = 0;
        for (std::size_t b = 1; b < kNumCycleBuckets; ++b) {
            check("cpi_stack." +
                      std::string(cycleBucketName(
                          static_cast<CycleBucket>(b))),
                  analysis.stallCycles[b],
                  counter("results", "cpi_stack", b));
            stallSum += analysis.stallCycles[b];
        }
        Count cycles = counter("results", "cycles");
        Count cores = counter("config", "cores");
        if (cycles && cores) {
            std::uint64_t chipCycles = *cycles * *cores;
            check("cpi_stack.busy (derived)",
                  chipCycles >= stallSum ? chipCycles - stallSum : 0,
                  counter("results", "cpi_stack", 0));
        }
    }
    return cc;
}

} // namespace ipref
