/**
 * @file
 * Scheme parameters for sweeps over the prefetch-scheme registry:
 * every registered token, and a token spelled as a gtest name.
 */

#ifndef IPREF_TESTS_SCHEME_PARAMS_HH
#define IPREF_TESTS_SCHEME_PARAMS_HH

#include <cctype>
#include <string>
#include <vector>

#include "prefetch/scheme_registry.hh"

namespace ipref::test
{

/** Every registered scheme's token, in registration order. */
inline std::vector<std::string>
allSchemeTokens()
{
    std::vector<std::string> tokens;
    for (const SchemeDescriptor *d : SchemeRegistry::instance().all())
        tokens.push_back(d->token);
    return tokens;
}

/** @p token as a gtest name fragment ("nl-tagged" -> "nl_tagged"). */
inline std::string
schemeTestName(std::string token)
{
    for (char &c : token)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return token;
}

} // namespace ipref::test

#endif // IPREF_TESTS_SCHEME_PARAMS_HH
