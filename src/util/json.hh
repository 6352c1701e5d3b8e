/**
 * @file
 * Minimal JSON support shared by the stats/tracing writers and the
 * offline analysis toolchain: emission helpers plus a small
 * recursive-descent parser (`parseJson`). The simulator hot paths
 * only emit; parsing is used by `ipref_analyze`, the examples and the
 * tests — keeping the dependency surface zero either way.
 */

#ifndef IPREF_UTIL_JSON_HH
#define IPREF_UTIL_JSON_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/parse.hh"

namespace ipref
{

namespace detail
{

/**
 * Append @p s escaped for a JSON string literal to @p out. Runs of
 * characters that need no escape are appended in bulk.
 */
inline void
appendJsonEscaped(std::string &out, std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    out.append(s.data() + run, s.size() - run);
}

} // namespace detail

/** Escape @p s for use inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    detail::appendJsonEscaped(out, s);
    return out;
}

/** Quoted JSON string literal for @p s. */
inline std::string
jsonString(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    detail::appendJsonEscaped(out, s);
    out += '"';
    return out;
}

/** "0x..." hex rendering of @p v (JSON has no hex numbers). */
inline std::string
jsonHex(std::uint64_t v)
{
    char buf[18] = {'0', 'x'};
    return std::string(
        buf, std::to_chars(buf + 2, buf + sizeof(buf), v, 16).ptr);
}

/** Finite JSON number for @p v (NaN/inf become 0). */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

// --- parsing ---------------------------------------------------------

/**
 * A parsed JSON value. Object keys are ordered (std::map) so dumps of
 * parsed documents are deterministic.
 */
struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;          //!< Array elements
    std::map<std::string, JsonValue> fields; //!< Object members

    bool isNull() const { return kind == Null; }

    bool has(const std::string &key) const { return fields.count(key); }

    /** Object member access; throws std::runtime_error if absent. */
    const JsonValue &
    at(const std::string &key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("JSON: missing key: " + key);
        return it->second;
    }

    /** Member @p key as a string, or @p def when absent. */
    std::string
    stringOr(const std::string &key, const std::string &def) const
    {
        auto it = fields.find(key);
        return it == fields.end() || it->second.kind != String
                   ? def
                   : it->second.str;
    }

    /**
     * This value as a uint64: a finite integral number in [0, 2^64)
     * (exact below 2^53), or "0x" and hex digits (the writers'
     * counter and address encoding, exact). Anything else throws.
     */
    std::uint64_t
    asUint() const
    {
        std::uint64_t v = 0;
        if (toUint(v))
            return v;
        throw std::runtime_error("JSON: not a uint: " + text());
    }

    /**
     * Member @p key as an integer of type T, or @p def when absent:
     * read as asUint() does (a signed T: a finite integral number in
     * [-2^63, 2^63)) and range-checked to T. Anything else throws an
     * error that names @p key.
     */
    template <class T>
    T
    intOr(const std::string &key, T def) const
    {
        static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
        auto it = fields.find(key);
        if (it == fields.end())
            return def;
        using Limits = std::numeric_limits<T>;
        if constexpr (std::is_signed_v<T>) {
            std::int64_t v = 0;
            if (it->second.toInt(v) && v >= Limits::min() &&
                v <= Limits::max())
                return static_cast<T>(v);
        } else {
            std::uint64_t v = 0;
            if (it->second.toUint(v) && v <= Limits::max())
                return static_cast<T>(v);
        }
        throw std::runtime_error(
            "JSON: " + key + " is not " +
            (std::is_signed_v<T> ? "a signed " : "an unsigned ") +
            std::to_string(Limits::digits + Limits::is_signed) +
            "-bit integer: " + it->second.text());
    }

  private:
    bool
    toUint(std::uint64_t &v) const
    {
        if (kind == Number && number >= 0 && number < 0x1p64 &&
            number == std::floor(number)) {
            v = static_cast<std::uint64_t>(number);
            return true;
        }
        std::optional<std::uint64_t> hex;
        if (kind == String && str.starts_with("0x"))
            hex = readUint(str, Radix::DecOrHex);
        if (hex)
            v = *hex;
        return hex.has_value();
    }

    bool
    toInt(std::int64_t &v) const
    {
        if (kind != Number || number < -0x1p63 || number >= 0x1p63 ||
            number != std::floor(number))
            return false;
        v = static_cast<std::int64_t>(number);
        return true;
    }

    /** The value as an error message shows it. */
    std::string
    text() const
    {
        return kind == Number ? jsonNumber(number) : str;
    }
};

namespace detail
{

/** Recursive-descent JSON parser over a string view of the input. */
class JsonParser
{
  public:
    JsonParser(const char *s, std::size_t n) : s_(s), n_(n) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != n_)
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < n_ &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= n_)
            fail("unexpected end");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    void
    literal(const char *word)
    {
        skipWs();
        for (const char *p = word; *p; ++p, ++pos_)
            if (pos_ >= n_ || s_[pos_] != *p)
                fail(std::string("bad literal (expected ") + word +
                     ")");
    }

    JsonValue
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': {
            literal("true");
            JsonValue v;
            v.kind = JsonValue::Bool;
            v.boolean = true;
            return v;
          }
          case 'f': {
            literal("false");
            JsonValue v;
            v.kind = JsonValue::Bool;
            return v;
          }
          case 'n':
            literal("null");
            return JsonValue{};
          default:
            return number();
        }
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            JsonValue key = string();
            expect(':');
            v.fields[key.str] = value();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::String;
        expect('"');
        while (pos_ < n_ && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                v.str += c;
                continue;
            }
            if (pos_ >= n_)
                fail("bad escape");
            char e = s_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/': v.str += e; break;
              case 'n': v.str += '\n'; break;
              case 't': v.str += '\t'; break;
              case 'r': v.str += '\r'; break;
              case 'b': v.str += '\b'; break;
              case 'f': v.str += '\f'; break;
              case 'u': {
                if (pos_ + 4 > n_)
                    fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u digit");
                }
                // The writers only escape control characters; decode
                // the BMP into UTF-8 for general inputs.
                if (code < 0x80) {
                    v.str += static_cast<char>(code);
                } else if (code < 0x800) {
                    v.str += static_cast<char>(0xc0 | (code >> 6));
                    v.str += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    v.str += static_cast<char>(0xe0 | (code >> 12));
                    v.str += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3f));
                    v.str += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
        if (pos_ >= n_)
            fail("unterminated string");
        ++pos_; // closing quote
        return v;
    }

    JsonValue
    number()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < n_ &&
               ((s_[pos_] >= '0' && s_[pos_] <= '9') ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        std::optional<double> d =
            readDouble(std::string_view(s_ + start, pos_ - start));
        if (!d)
            fail("bad number");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = *d;
        return v;
    }

    const char *s_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

} // namespace detail

/** Parse one complete JSON document; throws std::runtime_error. */
inline JsonValue
parseJson(std::string_view text)
{
    return detail::JsonParser(text.data(), text.size()).parse();
}

} // namespace ipref

#endif // IPREF_UTIL_JSON_HH
