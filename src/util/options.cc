#include "util/options.hh"

#include "util/parse.hh"

namespace ipref
{

namespace
{

/**
 * Flag @p name read by @p reader, @p def when absent, or a ConfigError
 * naming the flag.
 */
template <typename T, typename Reader>
T
readFlag(const std::map<std::string, std::string> &values,
         const std::string &name, T def, Reader reader)
{
    auto it = values.find(name);
    return it == values.end()
               ? def
               : valueOrThrow(reader(it->second), "--" + name,
                              it->second);
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
    return readFlag(values_, name, def, [](std::string_view t) {
        return readInt(t, Radix::DecOrHex);
    });
}

std::uint64_t
Options::getUint(const std::string &name, std::uint64_t def) const
{
    return readFlag(values_, name, def, [](std::string_view t) {
        return readUint(t, Radix::DecOrHex);
    });
}

double
Options::getDouble(const std::string &name, double def) const
{
    return readFlag(values_, name, def, readDouble);
}

bool
Options::getBool(const std::string &name, bool def) const
{
    return readFlag(values_, name, def, readBool);
}

} // namespace ipref
