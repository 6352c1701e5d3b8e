#include "util/crc32.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define IPREF_CRC32_CLMUL 1
#endif

namespace ipref
{

#ifdef IPREF_CRC32_CLMUL

namespace
{

#define IPREF_CLMUL_TARGET __attribute__((target("pclmul,sse2")))

IPREF_CLMUL_TARGET inline __m128i
load16(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** @p x carried @p k's distance forward and added to @p next. */
IPREF_CLMUL_TARGET inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/**
 * The CRC register after @p n bytes at @p p (n a multiple of 16, at
 * least 64) from register @p c, by the folding of Intel's "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ": four lanes
 * fold 64 bytes a step, then into one 128-bit lane that the table
 * finishes.
 */
IPREF_CLMUL_TARGET std::uint32_t
foldClmul(const unsigned char *p, std::size_t n, std::uint32_t c)
{
    // x^(512 +/- 32) and x^(128 +/- 32) mod P, bit-reflected.
    const __m128i by4 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i by1 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    __m128i x0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load16(p + 16), x2 = load16(p + 32), x3 = load16(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x0 = fold(x0, by4, load16(p));
        x1 = fold(x1, by4, load16(p + 16));
        x2 = fold(x2, by4, load16(p + 32));
        x3 = fold(x3, by4, load16(p + 48));
    }
    x3 = fold(fold(fold(x0, by1, x1), by1, x2), by1, x3);
    for (; n >= 16; p += 16, n -= 16)
        x3 = fold(x3, by1, load16(p));
    unsigned char tail[16];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(tail), x3);
    c = 0;
    for (unsigned char b : tail)
        c = detail::crc32Table[(c ^ b) & 0xFFu] ^ (c >> 8);
    return c;
}

} // namespace

std::uint32_t
crc32Fast(const void *data, std::size_t n, std::uint32_t seed)
{
    static const bool clmul = __builtin_cpu_supports("pclmul");
    if (!clmul || n < 64)
        return crc32Sliced(data, n, seed);
    const auto *p = static_cast<const unsigned char *>(data);
    const std::size_t folded = n & ~std::size_t{15};
    const std::uint32_t c = foldClmul(p, folded, seed ^ 0xFFFFFFFFu);
    return crc32Sliced(p + folded, n - folded, c ^ 0xFFFFFFFFu);
}

#else

std::uint32_t
crc32Fast(const void *data, std::size_t n, std::uint32_t seed)
{
    return crc32Sliced(data, n, seed);
}

#endif

} // namespace ipref
