/**
 * @file
 * The one reader of numbers and flags that arrive as text: command-
 * line values (Options), scheme knobs, JSON numbers, fault schedules
 * and IPREF_* environment variables. It is strict:
 *   - an unsigned integer is decimal digits, or "0x" and hex digits
 *     where the caller passes Radix::DecOrHex; there is no octal
 *     ("010" is ten);
 *   - a signed integer may start with '-'; no reader accepts '+';
 *   - a double is a finite decimal number ("-2.5", "1e-3"); "nan",
 *     "inf" and overflow are refused;
 *   - a bool is 1/true/on/yes or 0/false/off/no;
 *   - empty text, a leading or trailing space, trailing text and a
 *     value outside the type's range are refused.
 * Each reader returns std::nullopt on refusal; valueOrThrow() turns
 * that into a ConfigError that quotes the text.
 */

#ifndef IPREF_UTIL_PARSE_HH
#define IPREF_UTIL_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

#include "util/error.hh"

namespace ipref
{

/** Integer spellings a caller accepts. */
enum class Radix : std::uint8_t
{
    Dec,      //!< decimal digits only
    DecOrHex, //!< decimal, or "0x" and hex digits
};

/** @p text as a uint64 (see the file comment), or nullopt. */
inline std::optional<std::uint64_t>
readUint(std::string_view text, Radix radix = Radix::Dec)
{
    int base = 10;
    if (radix == Radix::DecOrHex && text.starts_with("0x")) {
        text.remove_prefix(2);
        base = 16;
    }
    // from_chars takes no space, sign or prefix for an unsigned type.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

/** @p text as an int64: readUint() after an optional '-'. */
inline std::optional<std::int64_t>
readInt(std::string_view text, Radix radix = Radix::Dec)
{
    const bool negative = text.starts_with('-');
    if (negative)
        text.remove_prefix(1);
    std::optional<std::uint64_t> u = readUint(text, radix);
    if (!u || *u > (std::uint64_t{1} << 63) - !negative)
        return std::nullopt;
    return static_cast<std::int64_t>(negative ? 0 - *u : *u);
}

/** @p text as a finite double, or nullopt. */
inline std::optional<double>
readDouble(std::string_view text)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        return std::nullopt;
    return v;
}

/** @p text as a bool (1/true/on/yes, 0/false/off/no), or nullopt. */
inline std::optional<bool>
readBool(std::string_view text)
{
    for (std::string_view t : {"1", "true", "on", "yes"})
        if (text == t)
            return true;
    for (std::string_view f : {"0", "false", "off", "no"})
        if (text == f)
            return false;
    return std::nullopt;
}

/**
 * The value a reader returned, or a ConfigError
 * `<what>: "<text>" is not <kind>` when it refused @p text.
 */
template <class T>
T
valueOrThrow(const std::optional<T> &v, std::string_view what,
             std::string_view text)
{
    if (v)
        return *v;
    const char *kind = std::is_same_v<T, bool>
                           ? "a bool (1/true/on/yes or 0/false/off/no)"
                       : std::is_floating_point_v<T> ? "a finite number"
                       : std::is_signed_v<T> ? "an integer"
                                             : "an unsigned integer";
    ipref_raise(ConfigError, "%.*s: \"%.*s\" is not %s",
                static_cast<int>(what.size()), what.data(),
                static_cast<int>(text.size()), text.data(), kind);
}

} // namespace ipref

#endif // IPREF_UTIL_PARSE_HH
