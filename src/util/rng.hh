/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * All randomness in the project flows through named Rng streams seeded
 * from the experiment configuration, so a given configuration always
 * produces a bit-identical simulation. We use SplitMix64 for seeding
 * and xoshiro256** as the main generator (fast, high quality, and
 * trivially reproducible across platforms, unlike std::mt19937
 * distributions whose outputs are implementation-defined).
 */

#ifndef IPREF_UTIL_RNG_HH
#define IPREF_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/logging.hh"

namespace ipref
{

/** SplitMix64 step; used for seed expansion and hashing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stable 64-bit hash of a string (FNV-1a), for named seed streams. */
constexpr std::uint64_t
hashString(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * xoshiro256** generator with convenience distributions.
 *
 * Distributions are implemented by hand (not via <random>) so that
 * results are identical on every standard library implementation.
 */
class Rng
{
  public:
    /** Construct from a root seed; use fork() for derived streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t sm = seed;
        for (auto &w : state_)
            w = splitMix64(sm);
    }

    /** Derive an independent stream named @p tag from this one. */
    Rng
    fork(std::string_view tag) const
    {
        std::uint64_t mix = state_[0] ^ (state_[1] << 1) ^ hashString(tag);
        return Rng(mix);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        ipref_assert(bound != 0);
        // Lemire-style rejection-free-ish mapping; bias is negligible
        // for the bounds used here, but we use 128-bit multiply to be
        // exact in distribution shape across platforms.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        ipref_assert(hi >= lo);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Geometric draw: number of failures before first success. */
    std::uint64_t
    geometric(double p)
    {
        ipref_assert(p > 0.0 && p <= 1.0);
        if (p >= 1.0)
            return 0;
        std::uint64_t n = 0;
        while (!chance(p) && n < 1u << 20)
            ++n;
        return n;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

/**
 * Precomputed Zipf(alpha) sampler over {0, ..., n-1}.
 *
 * Inverse-CDF sampling: a draw u in [0, 1) maps to the first rank
 * whose CDF value is >= u, exactly what std::lower_bound over the CDF
 * returns. Rank 0 is the most popular item. Construction is O(n).
 *
 * A guide table narrows each search. With B = 2^b buckets (a power of
 * two, about one per 8 ranks, at most 2^15), guide[j] is the
 * lower_bound of j/B. Because u*B is exact in binary floating point,
 * u lies in bucket j = floor(u*B), and its rank lies in
 * [guide[j], guide[j+1]] (or [guide[B-1], n-1] for the last bucket);
 * a branchless binary search there finds the same rank as a search of
 * the whole CDF. The guide takes at most 1/16 of the CDF's bytes;
 * samplers under 8 ranks have none and search the whole CDF.
 */
class ZipfSampler
{
  public:
    /** Build a sampler over @p n items with exponent @p alpha. */
    ZipfSampler(std::size_t n, double alpha);

    /** Draw a rank in [0, n); consumes one uniform(). */
    std::size_t sample(Rng &rng) const { return rank(rng.uniform()); }

    /** The rank of @p u in [0, 1): the first i with cdf[i] >= u. */
    std::size_t
    rank(double u) const
    {
        std::size_t lo = 0;
        std::size_t hi = cdf_.size() - 1;
        if (!guide_.empty()) {
            const auto j = static_cast<std::size_t>(
                u * static_cast<double>(guide_.size()));
            lo = guide_[j];
            if (j + 1 < guide_.size())
                hi = guide_[j + 1];
        }
        // cdf[hi] >= u, so the answer is in [lo, hi]: halve the range
        // with a conditional move per step, then settle the last one.
        const double *base = cdf_.data() + lo;
        for (std::size_t len = hi - lo + 1; len > 1;) {
            const std::size_t half = len / 2;
            base = base[half] < u ? base + half : base;
            len -= half;
        }
        return static_cast<std::size_t>(base - cdf_.data()) +
               (*base < u);
    }

    /** Number of items. */
    std::size_t size() const { return cdf_.size(); }

    /** Bytes held by the guide table. */
    std::size_t
    guideBytes() const
    {
        return guide_.size() * sizeof(std::uint32_t);
    }

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_; //!< B entries: lower_bound of j/B
};

} // namespace ipref

#endif // IPREF_UTIL_RNG_HH
