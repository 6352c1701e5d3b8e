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
     * Typed accessors return @p def when the flag is absent and read
     * its value with util/parse.hh's strict reader otherwise: getInt
     * and getUint take decimal or "0x" hex (no octal; only getInt takes
     * a '-'), getDouble a finite number, getBool 1/true/on/yes or
     * 0/false/off/no (a bare "--flag" is 1). Any other text, a space or
     * an out-of-range value raises a ConfigError naming the flag.
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
