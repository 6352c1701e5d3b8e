#include "prefetch/scheme_registry.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

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

namespace ipref
{

namespace
{

const char *
knobTypeName(KnobType t)
{
    switch (t) {
      case KnobType::Uint: return "uint";
      case KnobType::Bool: return "bool";
      case KnobType::Double: return "double";
    }
    return "?";
}

bool
parseUintText(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseBoolText(const std::string &text, bool &out)
{
    if (text == "1" || text == "true" || text == "on" ||
        text == "yes") {
        out = true;
        return true;
    }
    if (text == "0" || text == "false" || text == "off" ||
        text == "no") {
        out = false;
        return true;
    }
    return false;
}

bool
parseDoubleText(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
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

std::uint64_t
KnobValues::getUint(const std::string &name, std::uint64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    std::uint64_t v = 0;
    if (!parseUintText(it->second, v))
        ipref_raise(ConfigError, "knob '%s': bad uint value '%s'",
                    name.c_str(), it->second.c_str());
    return v;
}

bool
KnobValues::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    bool v = false;
    if (!parseBoolText(it->second, v))
        ipref_raise(ConfigError, "knob '%s': bad bool value '%s'",
                    name.c_str(), it->second.c_str());
    return v;
}

double
KnobValues::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    double v = 0.0;
    if (!parseDoubleText(it->second, v))
        ipref_raise(ConfigError, "knob '%s': bad double value '%s'",
                    name.c_str(), it->second.c_str());
    return v;
}

std::string
KnobValues::canonical() const
{
    std::string out;
    for (const auto &[k, v] : values_) {
        if (!out.empty())
            out += ",";
        out += k + "=" + v;
    }
    return out;
}

KnobValues
KnobValues::fromCanonical(const std::string &text)
{
    KnobValues kv;
    std::string item;
    for (char c : text + ",") {
        if (c != ',') {
            item += c;
            continue;
        }
        if (!item.empty()) {
            auto eq = item.find('=');
            if (eq == std::string::npos)
                ipref_raise(ConfigError,
                            "scheme knobs: '%s' is not knob=value",
                            item.c_str());
            kv.set(item.substr(0, eq), item.substr(eq + 1));
        }
        item.clear();
    }
    return kv;
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
    for (const auto &[name, value] : knobs.raw()) {
        const KnobSpec *spec = nullptr;
        for (const KnobSpec &k : desc.knobSchema)
            if (k.name == name) {
                spec = &k;
                break;
            }
        if (!spec) {
            std::string valid;
            for (const KnobSpec &k : desc.knobSchema) {
                if (!valid.empty())
                    valid += ", ";
                valid += k.name;
            }
            ipref_raise(ConfigError,
                        "scheme '%s': unknown knob '%s' (valid: %s)",
                        desc.token.c_str(), name.c_str(),
                        valid.empty() ? "none" : valid.c_str());
        }
        switch (spec->type) {
          case KnobType::Uint: {
            std::uint64_t v = 0;
            if (!parseUintText(value, v))
                ipref_raise(ConfigError,
                            "scheme '%s': knob '%s': bad uint value "
                            "'%s'",
                            desc.token.c_str(), name.c_str(),
                            value.c_str());
            if (v < spec->minUint || v > spec->maxUint)
                ipref_raise(ConfigError,
                            "scheme '%s': knob '%s'=%llu out of range "
                            "[%llu, %llu]",
                            desc.token.c_str(), name.c_str(),
                            static_cast<unsigned long long>(v),
                            static_cast<unsigned long long>(
                                spec->minUint),
                            static_cast<unsigned long long>(
                                spec->maxUint));
            break;
          }
          case KnobType::Bool: {
            bool v = false;
            if (!parseBoolText(value, v))
                ipref_raise(ConfigError,
                            "scheme '%s': knob '%s': bad bool value "
                            "'%s'",
                            desc.token.c_str(), name.c_str(),
                            value.c_str());
            break;
          }
          case KnobType::Double: {
            double v = 0.0;
            if (!parseDoubleText(value, v))
                ipref_raise(ConfigError,
                            "scheme '%s': knob '%s': bad double value "
                            "'%s'",
                            desc.token.c_str(), name.c_str(),
                            value.c_str());
            break;
          }
        }
    }
}

SchemeSelection
parseSchemeSpec(const std::string &text)
{
    std::string token = text;
    std::string knobText;
    auto colon = text.find(':');
    if (colon != std::string::npos) {
        token = text.substr(0, colon);
        knobText = text.substr(colon + 1);
    }
    const SchemeDescriptor &desc = SchemeRegistry::instance().at(token);
    SchemeSelection sel;
    sel.token = desc.token;
    sel.knobs = KnobValues::fromCanonical(knobText);
    validateKnobs(desc, sel.knobs);
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
