/**
 * @file
 * Internal on-disk helpers shared by the trace writer and reader:
 * little-endian scalar packing and the v3 magic string.
 * Not part of the public trace API.
 */

#ifndef IPREF_TRACE_WIRE_HH
#define IPREF_TRACE_WIRE_HH

#include <cstdint>
#include <cstring>

namespace ipref
{
namespace tracewire
{

inline constexpr char magicV3[8] = {'I', 'P', 'R', 'T', 'R', 'C', '0', '3'};
inline constexpr std::size_t magicBytes = 8;

inline void
put64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint64_t
get64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

inline void
put32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint32_t
get32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

inline bool
isMagic(const unsigned char *p, const char (&magic)[8])
{
    return std::memcmp(p, magic, magicBytes) == 0;
}

} // namespace tracewire
} // namespace ipref

#endif // IPREF_TRACE_WIRE_HH
