/**
 * @file
 * Open prefetch-scheme registry: every selectable scheme registers a
 * descriptor (canonical token, display name, aliases, knob schema and
 * factory) and the rest of the system — --scheme parsing, RunSpec
 * validation, CLI help text, report labels, the engine factory — is
 * driven off those descriptors. Out-of-tree schemes call
 * SchemeRegistry::instance().add() at startup and participate in all
 * of the above without touching this library.
 */

#ifndef IPREF_PREFETCH_SCHEME_REGISTRY_HH
#define IPREF_PREFETCH_SCHEME_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace ipref
{

/** Value type of one scheme knob. */
enum class KnobType : std::uint8_t
{
    Uint,
    Bool,
    Double,
};

/** Schema of one scheme-specific knob ("domino:history=16384"). */
struct KnobSpec
{
    std::string name;                //!< knob token ("history")
    KnobType type = KnobType::Uint;
    std::string defaultValue;        //!< shown in --scheme help
    std::string help;                //!< one-line description
    std::uint64_t minUint = 0;       //!< inclusive bound (Uint only)
    std::uint64_t maxUint = ~0ull;   //!< inclusive bound (Uint only)
};

/**
 * Explicitly-set knob values of one scheme selection. Values are kept
 * as their raw text (validated against the schema at build time), so
 * serialization — the campaign wire protocol, spec fingerprints — is
 * trivially exact: the canonical form is the sorted "k=v,k2=v2"
 * string.
 */
class KnobValues
{
  public:
    /** Set (or overwrite) one knob; raw text, validated later. */
    void set(const std::string &name, const std::string &value)
    {
        values_[name] = value;
    }

    bool has(const std::string &name) const
    {
        return values_.count(name) != 0;
    }

    bool empty() const { return values_.empty(); }

    /** Typed accessors; parse the raw text, falling back to @p def
     *  when the knob was not explicitly set. The schema validation in
     *  validateKnobs() guarantees these cannot fail on a built spec. */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t def) const;
    bool getBool(const std::string &name, bool def) const;
    double getDouble(const std::string &name, double def) const;

    /** Sorted "k=v,k2=v2" form (empty string when no knobs set). */
    std::string canonical() const;

    /** Parse a canonical "k=v,k2=v2" string (inverse of canonical). */
    static KnobValues fromCanonical(const std::string &text);

    const std::map<std::string, std::string> &raw() const
    {
        return values_;
    }

    bool operator==(const KnobValues &o) const
    {
        return values_ == o.values_;
    }

  private:
    std::map<std::string, std::string> values_;
};

/** Everything the system needs to know about one scheme. */
struct SchemeDescriptor
{
    std::string token;       //!< canonical CLI token ("domino")
    std::string displayName; //!< legend name ("domino record/replay")
    std::vector<std::string> aliases;
    std::vector<KnobSpec> knobSchema;

    /**
     * Build the prefetcher. @p cfg carries the common core (line
     * size, degree, table sizing); @p knobs the explicitly-set
     * scheme-specific values (schema defaults apply for the rest).
     * May return nullptr ("none" does).
     */
    std::function<std::unique_ptr<InstructionPrefetcher>(
        const PrefetchConfig &cfg, const KnobValues &knobs)>
        factory;
};

/**
 * The process-wide scheme registry. Built-ins register on first use;
 * add() extends it at runtime. Thread-safe; descriptor addresses are
 * stable for the life of the process.
 */
class SchemeRegistry
{
  public:
    static SchemeRegistry &instance();

    /**
     * Register a scheme; throws ConfigError when the token or an
     * alias collides with an existing name, or the descriptor is
     * incomplete (empty token / missing factory).
     */
    void add(SchemeDescriptor desc);

    /** Descriptor by token or alias; nullptr when unknown. */
    const SchemeDescriptor *find(const std::string &name) const;

    /** find() that throws ConfigError listing the valid tokens. */
    const SchemeDescriptor &at(const std::string &name) const;

    /** Every descriptor, in registration order. */
    std::vector<const SchemeDescriptor *> all() const;

  private:
    SchemeRegistry();

    mutable std::mutex mu_;
    std::deque<SchemeDescriptor> entries_;       //!< stable addresses
    std::map<std::string, SchemeDescriptor *> byName_;
};

/** One --scheme item: a canonical token plus explicit knob values. */
struct SchemeSelection
{
    std::string token = "none";
    KnobValues knobs;

    bool enabled() const { return token != "none"; }
};

/**
 * Parse a "token" / "token:knob=val,knob=val" scheme spec against the
 * registry: the token (or alias) is canonicalized and every knob is
 * validated against the scheme's schema. Throws ConfigError on an
 * unknown token, an unknown knob, or a malformed / out-of-range
 * value.
 */
SchemeSelection parseSchemeSpec(const std::string &text);

/**
 * Validate explicitly-set knobs against @p desc's schema; throws
 * ConfigError naming the offending knob. Called by parseSchemeSpec()
 * and again by RunSpec::Builder::build() (specs can be aggregate-
 * initialized without going through the parser).
 */
void validateKnobs(const SchemeDescriptor &desc,
                   const KnobValues &knobs);

/**
 * The generated --scheme help text: one table row per registered
 * scheme (token, aliases, display name) with its knob schema
 * indented underneath.
 */
std::string schemeHelpText();

/**
 * Knob specs every prefetching scheme shares (degree, queue_size,
 * history_size): RunSpec::Builder maps these onto the PrefetchConfig
 * common core instead of passing them to the scheme factory. Scheme
 * registrations compose them via withCommonKnobs().
 */
std::vector<KnobSpec> commonKnobSpecs();

/** commonKnobSpecs() followed by @p extra. */
std::vector<KnobSpec> withCommonKnobs(std::vector<KnobSpec> extra);

} // namespace ipref

#endif // IPREF_PREFETCH_SCHEME_REGISTRY_HH
