/**
 * @file
 * Tiny command-line option parser for the examples and benches.
 *
 * Supports "--name value", "--name=value" and boolean "--flag".
 * Unknown options are fatal (catches typos in experiment scripts).
 */

#ifndef IPREF_UTIL_OPTIONS_HH
#define IPREF_UTIL_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ipref
{

/** Parsed command-line options with typed accessors and defaults. */
class Options
{
  public:
    /**
     * Parse argv. @p known maps option name -> help text; parsing an
     * option not in @p known is fatal. Pass an empty map to accept
     * anything.
     */
    Options(int argc, char **argv,
            const std::map<std::string, std::string> &known = {});

    bool has(const std::string &name) const;

    std::string getString(const std::string &name,
                          const std::string &def = "") const;
    /**
     * Numeric accessors: the whole value must parse (getInt/getUint
     * take 0x / 0 prefixes) or a ConfigError naming the flag is
     * raised; getUint also rejects negative values.
     */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;
    std::uint64_t getUint(const std::string &name, std::uint64_t def) const;
    double getDouble(const std::string &name, double def) const;
    bool getBool(const std::string &name, bool def = false) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace ipref

#endif // IPREF_UTIL_OPTIONS_HH
