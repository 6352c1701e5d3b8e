/**
 * @file
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), used by the
 * trace format to detect header and frame corruption. Table-driven,
 * with a carry-less-multiply kernel for bulk data, zero dependencies.
 */

#ifndef IPREF_UTIL_CRC32_HH
#define IPREF_UTIL_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace ipref
{

namespace detail
{

constexpr std::array<std::uint32_t, 256>
makeCrc32Table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

inline constexpr std::array<std::uint32_t, 256> crc32Table =
    makeCrc32Table();

} // namespace detail

namespace detail
{

/** Slicing-by-8 tables: table[k][b] advances byte b through k+1
 * zero bytes of the shift register. */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrc32Tables8()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    t[0] = makeCrc32Table();
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8>
    crc32Tables8 = makeCrc32Tables8();

} // namespace detail

/**
 * CRC-32 of @p n bytes at @p data. Pass a previous return value as
 * @p seed to checksum incrementally (seed 0 starts a fresh sum).
 */
inline std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed = 0)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = detail::crc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/**
 * Same CRC-32, slicing-by-8: eight table lookups per 8-byte chunk
 * break the byte-serial dependency chain, roughly 5x the byte-wise
 * routine on bulk data; returns identical values to crc32().
 */
inline std::uint32_t
crc32Sliced(const void *data, std::size_t n, std::uint32_t seed = 0)
{
    const auto &t = detail::crc32Tables8;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    while (n >= 8) {
        std::uint32_t lo = static_cast<std::uint32_t>(p[0]) |
                           static_cast<std::uint32_t>(p[1]) << 8 |
                           static_cast<std::uint32_t>(p[2]) << 16 |
                           static_cast<std::uint32_t>(p[3]) << 24;
        std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                           static_cast<std::uint32_t>(p[5]) << 8 |
                           static_cast<std::uint32_t>(p[6]) << 16 |
                           static_cast<std::uint32_t>(p[7]) << 24;
        lo ^= c;
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n--)
        c = detail::crc32Table[(c ^ *p++) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/**
 * Same CRC-32 for bulk data: on x86-64 CPUs with PCLMULQDQ it folds
 * 64 bytes a step with carry-less multiplies (several GB/s, about 5x
 * crc32Sliced()), elsewhere it is crc32Sliced(). Trace frames are
 * checked with it on every write and load.
 */
std::uint32_t crc32Fast(const void *data, std::size_t n,
                        std::uint32_t seed = 0);

} // namespace ipref

#endif // IPREF_UTIL_CRC32_HH
