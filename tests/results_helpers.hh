/**
 * @file
 * The one SimResults comparison of the test suites: every counter
 * through resultsToJson() (the campaign's exact serialization, which
 * names every field), plus the derived ipc bit for bit.
 */

#ifndef IPREF_TESTS_RESULTS_HELPERS_HH
#define IPREF_TESTS_RESULTS_HELPERS_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/campaign.hh"

namespace ipref::test
{

inline void
expectIdentical(const SimResults &a, const SimResults &b)
{
    EXPECT_EQ(resultsToJson(a), resultsToJson(b));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ipc),
              std::bit_cast<std::uint64_t>(b.ipc));
}

} // namespace ipref::test

#endif // IPREF_TESTS_RESULTS_HELPERS_HH
