#include "prefetch/prefetcher.hh"

#include "prefetch/scheme_registry.hh"

namespace ipref
{

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
    const SchemeDescriptor &desc =
        SchemeRegistry::instance().at(cfg.schemeToken);
    KnobValues knobs = KnobValues::fromCanonical(cfg.schemeKnobs);
    validateKnobs(desc, knobs);
    return desc.factory(cfg, knobs);
}

} // namespace ipref
