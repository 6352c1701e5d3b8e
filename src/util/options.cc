#include "util/options.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/error.hh"
#include "util/logging.hh"

namespace ipref
{

namespace
{

/**
 * Convert all of option @p name's value @p v with @p conv (a strto*
 * call). Leading space, trailing characters and out-of-range values
 * raise a ConfigError naming the flag.
 */
template <typename Conv>
auto
parseWhole(const std::string &name, const std::string &v, Conv conv)
{
    const char *s = v.c_str();
    char *end = nullptr;
    errno = 0;
    auto x = conv(s, &end);
    if (end == s || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(*s)) || errno == ERANGE)
        ipref_raise(ConfigError, "--%s: \"%s\" is not a valid number",
                    name.c_str(), s);
    return x;
}

} // namespace

Options::Options(int argc, char **argv,
                 const std::map<std::string, std::string> &known)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value = "1"; // a boolean flag unless a value follows
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        if (!known.empty() && !known.count(name))
            ipref_raise(ConfigError, "unknown option --%s", name.c_str());
        values_[name] = value;
    }
}

bool
Options::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
Options::getString(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

std::int64_t
Options::getInt(const std::string &name, std::int64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return parseWhole(name, it->second, [](const char *s, char **e) {
        return std::strtoll(s, e, 0);
    });
}

std::uint64_t
Options::getUint(const std::string &name, std::uint64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    // strtoull would wrap "-1" to 2^64 - 1.
    if (it->second.starts_with('-'))
        ipref_raise(ConfigError, "--%s: \"%s\" is negative",
                    name.c_str(), it->second.c_str());
    return parseWhole(name, it->second, [](const char *s, char **e) {
        return std::strtoull(s, e, 0);
    });
}

double
Options::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return parseWhole(name, it->second, [](const char *s, char **e) {
        return std::strtod(s, e);
    });
}

bool
Options::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return it->second != "0" && it->second != "false" &&
           it->second != "no";
}

} // namespace ipref
