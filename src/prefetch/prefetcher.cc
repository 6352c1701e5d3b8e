#include "prefetch/prefetcher.hh"

#include "prefetch/scheme_registry.hh"

namespace ipref
{

std::string
KnobValues::canonical() const
{
    std::string out;
    for (const auto &[name, value] : values_) {
        if (!out.empty())
            out += ",";
        out += name + "=" +
               (value.type == KnobType::Bool
                    ? std::string(value.v ? "true" : "false")
                    : std::to_string(value.v));
    }
    return out;
}

const char *
originName(PrefetchOrigin origin)
{
    switch (origin) {
      case PrefetchOrigin::Sequential: return "sequential";
      case PrefetchOrigin::Discontinuity: return "discontinuity";
      case PrefetchOrigin::TargetTable: return "target_table";
      case PrefetchOrigin::Temporal: return "temporal";
      case PrefetchOrigin::NumOrigins: break;
    }
    return "?";
}

const char *
PrefetchConfig::effectiveToken() const
{
    return SchemeRegistry::instance().at(schemeToken).token.c_str();
}

const char *
schemeDisplayName(const PrefetchConfig &cfg)
{
    return SchemeRegistry::instance()
        .at(cfg.schemeToken)
        .displayName.c_str();
}

std::unique_ptr<InstructionPrefetcher>
createPrefetcher(const PrefetchConfig &cfg)
{
    return SchemeRegistry::instance().at(cfg.schemeToken).factory(
        cfg, cfg.schemeKnobs);
}

} // namespace ipref
