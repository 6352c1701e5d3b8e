#include "util/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace ipref
{

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
{
    ipref_assert(n > 0);
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
    cdf_.back() = 1.0;

    // One guide entry per 8 ranks, rounded down to a power of two.
    ipref_assert(n <= std::numeric_limits<std::uint32_t>::max());
    const std::size_t buckets = std::min<std::size_t>(
        std::size_t{1} << 15, std::bit_floor(n / 8));
    guide_.resize(buckets);
    std::size_t i = 0;
    for (std::size_t j = 0; j < buckets; ++j) {
        const double edge =
            static_cast<double>(j) / static_cast<double>(buckets);
        while (cdf_[i] < edge)
            ++i;
        guide_[j] = static_cast<std::uint32_t>(i);
    }
}

} // namespace ipref
