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
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ipref
{

/** Escape @p s for use inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Quoted JSON string literal for @p s. */
inline std::string
jsonString(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += jsonEscape(s);
    out += '"';
    return out;
}

/** "0x..." hex rendering of @p v (JSON has no hex numbers). */
inline std::string
jsonHex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
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

    /** Member @p key as a number, or @p def when absent/null. */
    double
    numberOr(const std::string &key, double def) const
    {
        auto it = fields.find(key);
        return it == fields.end() || it->second.kind != Number
                   ? def
                   : it->second.number;
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
     * (exact below 2^53), or "0x" and 1-16 hex digits (the writers'
     * counter and address encoding, exact). Anything else throws.
     */
    std::uint64_t
    asUint() const
    {
        if (kind == Number && number >= 0 && number < 0x1p64 &&
            number == std::floor(number))
            return static_cast<std::uint64_t>(number);
        std::uint64_t v = 0;
        if (kind == String && str.size() > 2 && str.size() <= 18 &&
            str.compare(0, 2, "0x") == 0 &&
            std::from_chars(str.data() + 2, str.data() + str.size(), v,
                            16)
                    .ptr == str.data() + str.size())
            return v;
        throw std::runtime_error(
            "JSON: not a uint: " +
            (kind == Number ? jsonNumber(number) : str));
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
        if (start == pos_)
            fail("bad number");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.number = std::stod(std::string(s_ + start, pos_ - start));
        return v;
    }

    const char *s_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

} // namespace detail

/** Parse one complete JSON document; throws std::runtime_error. */
inline JsonValue
parseJson(const std::string &text)
{
    return detail::JsonParser(text.data(), text.size()).parse();
}

} // namespace ipref

#endif // IPREF_UTIL_JSON_HH
