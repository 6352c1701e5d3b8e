/**
 * @file
 * LEB128 variable-length integers and zigzag signed mapping, used by
 * the columnar v3 trace block codec. Encoders write through a raw
 * pointer into a buffer the caller sized for the worst case (10 bytes
 * per value) and return the advanced pointer; decoders consume from a
 * bounds-checked cursor and report
 * malformed input by returning false (the caller owns the error
 * policy — the trace layer turns it into a TraceError).
 */

#ifndef IPREF_UTIL_VARINT_HH
#define IPREF_UTIL_VARINT_HH

#include <cstddef>
#include <cstdint>

namespace ipref
{

/** Largest encoded varint: ceil(64 / 7) bytes. */
inline constexpr std::size_t maxVarintBytes = 10;

/**
 * Write @p v as an unsigned LEB128 varint (1-10 bytes) at @p p;
 * returns the byte after it.
 */
inline unsigned char *
putVarint(unsigned char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>(v) | 0x80;
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
    return p;
}

/** Map a signed delta onto small unsigned values (-1 -> 1, 1 -> 2). */
inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
inline std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Write a signed value as a zigzag varint at @p p (see putVarint). */
inline unsigned char *
putSvarint(unsigned char *p, std::int64_t v)
{
    return putVarint(p, zigzagEncode(v));
}

/**
 * Bounds-checked read cursor over an encoded byte range. All get*
 * methods return false on truncated or overlong input and never read
 * past @p end.
 */
struct VarintCursor
{
    const unsigned char *pos = nullptr;
    const unsigned char *end = nullptr;

    VarintCursor(const unsigned char *begin, const unsigned char *stop)
        : pos(begin), end(stop)
    {}

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - pos);
    }

    bool
    getVarint(std::uint64_t &out)
    {
        // Fast path: single-byte values dominate delta streams.
        if (pos != end && *pos < 0x80) {
            out = *pos++;
            return true;
        }
        std::uint64_t v = 0;
        unsigned shift = 0;
        while (pos != end && shift < 64) {
            unsigned char b = *pos++;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) {
                out = v;
                return true;
            }
            shift += 7;
        }
        return false; // truncated or > 10 bytes
    }

    bool
    getSvarint(std::int64_t &out)
    {
        std::uint64_t raw = 0;
        if (!getVarint(raw))
            return false;
        out = zigzagDecode(raw);
        return true;
    }

    /** Raw byte run of length @p n; returns its start or nullptr. */
    const unsigned char *
    getBytes(std::size_t n)
    {
        if (remaining() < n)
            return nullptr;
        const unsigned char *p = pos;
        pos += n;
        return p;
    }
};

} // namespace ipref

#endif // IPREF_UTIL_VARINT_HH
