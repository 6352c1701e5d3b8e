#include "prefetch/scheme_registry.hh"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "prefetch/call_graph.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/domino.hh"
#include "prefetch/isb.hh"
#include "prefetch/mana.hh"
#include "prefetch/next_line.hh"
#include "prefetch/target_prefetcher.hh"
#include "prefetch/wrong_path.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace ipref
{

namespace
{

const char *
knobTypeName(KnobType t)
{
    return t == KnobType::Bool ? "bool" : "uint";
}

/** @p desc's schema entry for knob @p name; ConfigError if unknown. */
const KnobSpec &
knobSpec(const SchemeDescriptor &desc, const std::string &name)
{
    for (const KnobSpec &k : desc.knobSchema)
        if (k.name == name)
            return k;
    std::string valid;
    for (const KnobSpec &k : desc.knobSchema) {
        if (!valid.empty())
            valid += ", ";
        valid += k.name;
    }
    ipref_raise(ConfigError, "scheme '%s': unknown knob '%s' (valid: %s)",
                desc.token.c_str(), name.c_str(),
                valid.empty() ? "none" : valid.c_str());
}

/** Range check of uint knob value @p v, shown as @p text. */
void
checkRange(const SchemeDescriptor &desc, const KnobSpec &spec,
           std::uint64_t v, const std::string &text)
{
    if (v < spec.minUint || v > spec.maxUint)
        ipref_raise(ConfigError,
                    "scheme '%s': knob '%s': \"%s\" is out of range "
                    "[%llu, %llu]",
                    desc.token.c_str(), spec.name.c_str(), text.c_str(),
                    static_cast<unsigned long long>(spec.minUint),
                    static_cast<unsigned long long>(spec.maxUint));
}

void
registerBuiltins(SchemeRegistry &reg)
{
    using Policy = NextLinePrefetcher::Policy;
    auto nl = [](Policy policy, bool fixed1, bool lookahead) {
        return [policy, fixed1, lookahead](const PrefetchConfig &cfg,
                                           const KnobValues &) {
            return std::unique_ptr<InstructionPrefetcher>(
                std::make_unique<NextLinePrefetcher>(
                    policy, fixed1 ? 1 : cfg.degree, cfg.lineBytes,
                    lookahead));
        };
    };

    reg.add({"none", "no prefetch", {}, {},
             [](const PrefetchConfig &, const KnobValues &) {
                 return std::unique_ptr<InstructionPrefetcher>();
             }});
    reg.add({"nl-always", "next-line (always)", {}, withCommonKnobs({}),
             nl(Policy::Always, true, false)});
    reg.add({"nl-miss", "next-line (on miss)", {}, withCommonKnobs({}),
             nl(Policy::OnMiss, true, false)});
    reg.add({"nl-tagged", "next-line (tagged)", {},
             withCommonKnobs({}), nl(Policy::Tagged, true, false)});
    reg.add({"n4l", "next-4-lines (tagged)", {"nnl-tagged"},
             withCommonKnobs({}), nl(Policy::Tagged, false, false)});
    reg.add({"lookahead", "lookahead-N", {}, withCommonKnobs({}),
             nl(Policy::Tagged, false, true)});
    reg.add({"discontinuity", "discontinuity", {"disc"},
             withCommonKnobs({{"table_entries", KnobType::Uint, "8192",
                               "discontinuity table entries", 1,
                               1u << 24}}),
             [](const PrefetchConfig &cfg, const KnobValues &) {
                 return std::unique_ptr<InstructionPrefetcher>(
                     std::make_unique<DiscontinuityPrefetcher>(
                         cfg.tableEntries, cfg.degree, cfg.lineBytes));
             }});
    reg.add({"target", "target", {},
             withCommonKnobs(
                 {{"table_entries", KnobType::Uint, "8192",
                   "target table entries", 1, 1u << 24},
                  {"target_ways", KnobType::Uint, "2",
                   "targets per entry", 1, 64}}),
             [](const PrefetchConfig &cfg, const KnobValues &) {
                 return std::unique_ptr<InstructionPrefetcher>(
                     std::make_unique<TargetPrefetcher>(
                         cfg.tableEntries, cfg.targetWays,
                         cfg.lineBytes));
             }});
    reg.add({"wrong-path", "wrong-path", {"wrongpath"},
             withCommonKnobs({}),
             [](const PrefetchConfig &cfg, const KnobValues &) {
                 return std::unique_ptr<InstructionPrefetcher>(
                     std::make_unique<WrongPathPrefetcher>(
                         std::min(cfg.degree, 2u), cfg.lineBytes));
             }});
    reg.add({"call-graph", "call-graph", {"cgp"},
             withCommonKnobs({{"table_entries", KnobType::Uint, "8192",
                               "call-graph table entries", 1,
                               1u << 24}}),
             [](const PrefetchConfig &cfg, const KnobValues &) {
                 return std::unique_ptr<InstructionPrefetcher>(
                     std::make_unique<CallGraphPrefetcher>(
                         cfg.tableEntries, /*calleeSlots=*/8,
                         std::min(cfg.degree, 2u), cfg.lineBytes));
             }});

    // Temporal record/replay family.
    registerDominoScheme(reg);
    registerIsbScheme(reg);
    registerManaScheme(reg);
}

} // namespace

std::vector<KnobSpec>
commonKnobSpecs()
{
    return {
        {"degree", KnobType::Uint, "4",
         "prefetch-ahead distance N", 1, 256},
        {"queue_size", KnobType::Uint, "32",
         "prefetch queue capacity", 1, 1u << 20},
        {"history_size", KnobType::Uint, "32",
         "recent-fetch filter depth (0 = no filter)", 0, 1u << 20},
    };
}

std::vector<KnobSpec>
withCommonKnobs(std::vector<KnobSpec> extra)
{
    std::vector<KnobSpec> all = commonKnobSpecs();
    for (KnobSpec &k : extra)
        all.push_back(std::move(k));
    return all;
}

SchemeRegistry::SchemeRegistry()
{
    registerBuiltins(*this);
}

SchemeRegistry &
SchemeRegistry::instance()
{
    static SchemeRegistry reg;
    return reg;
}

void
SchemeRegistry::add(SchemeDescriptor desc)
{
    if (desc.token.empty())
        ipref_raise(ConfigError, "scheme registry: empty token");
    if (!desc.factory)
        ipref_raise(ConfigError,
                    "scheme registry: scheme '%s' has no factory",
                    desc.token.c_str());
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names{desc.token};
    for (const std::string &a : desc.aliases)
        names.push_back(a);
    for (const std::string &n : names)
        if (byName_.count(n))
            ipref_raise(ConfigError,
                        "scheme registry: name '%s' already "
                        "registered",
                        n.c_str());
    entries_.push_back(std::move(desc));
    SchemeDescriptor *d = &entries_.back();
    for (const std::string &n : names)
        byName_[n] = d;
}

const SchemeDescriptor *
SchemeRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second;
}

const SchemeDescriptor &
SchemeRegistry::at(const std::string &name) const
{
    if (const SchemeDescriptor *d = find(name))
        return *d;
    std::string valid;
    for (const SchemeDescriptor *d : all()) {
        if (!valid.empty())
            valid += ", ";
        valid += d->token;
    }
    ipref_raise(ConfigError,
                "unknown prefetch scheme '%s' (valid: %s)",
                name.c_str(), valid.c_str());
}

std::vector<const SchemeDescriptor *>
SchemeRegistry::all() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const SchemeDescriptor *> out;
    out.reserve(entries_.size());
    for (const SchemeDescriptor &d : entries_)
        out.push_back(&d);
    return out;
}

void
validateKnobs(const SchemeDescriptor &desc, const KnobValues &knobs)
{
    for (const auto &[name, value] : knobs.values()) {
        const KnobSpec &spec = knobSpec(desc, name);
        if (value.type != spec.type)
            ipref_raise(ConfigError,
                        "scheme '%s': knob '%s' takes a %s value",
                        desc.token.c_str(), name.c_str(),
                        knobTypeName(spec.type));
        if (spec.type == KnobType::Uint)
            checkRange(desc, spec, value.v, std::to_string(value.v));
    }
}

SchemeSelection
parseSchemeSpec(const std::string &text)
{
    const std::size_t colon = text.find(':');
    const SchemeDescriptor &desc =
        SchemeRegistry::instance().at(text.substr(0, colon));
    SchemeSelection sel;
    sel.token = desc.token;
    std::string_view rest;
    if (colon != std::string::npos)
        rest = std::string_view(text).substr(colon + 1);
    while (!rest.empty()) {
        const std::string_view item = rest.substr(0, rest.find(','));
        rest.remove_prefix(std::min(item.size() + 1, rest.size()));
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos)
            ipref_raise(ConfigError,
                        "scheme '%s': '%.*s' is not knob=value",
                        desc.token.c_str(), static_cast<int>(item.size()),
                        item.data());
        const std::string name(item.substr(0, eq));
        const std::string_view value = item.substr(eq + 1);
        const KnobSpec &spec = knobSpec(desc, name);
        const std::string what =
            "scheme '" + desc.token + "': knob '" + name + "'";
        std::uint64_t v = 0;
        if (spec.type == KnobType::Bool) {
            v = valueOrThrow(readBool(value), what, value);
        } else {
            v = valueOrThrow(readUint(value, Radix::DecOrHex), what,
                             value);
            checkRange(desc, spec, v, std::string(value));
        }
        sel.knobs.set(name, {spec.type, v});
    }
    return sel;
}

std::string
schemeHelpText()
{
    std::ostringstream os;
    os << "Registered prefetch schemes (--scheme "
          "token[:knob=val,knob=val]):\n";
    for (const SchemeDescriptor *d :
         SchemeRegistry::instance().all()) {
        os << "  " << d->token;
        for (const std::string &a : d->aliases)
            os << " | " << a;
        os << "  —  " << d->displayName << "\n";
        for (const KnobSpec &k : d->knobSchema)
            os << "      " << k.name << " (" << knobTypeName(k.type)
               << ", default " << k.defaultValue << "): " << k.help
               << "\n";
    }
    return os.str();
}

} // namespace ipref
