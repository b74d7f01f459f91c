/**
 * @file
 * The seed of every fuzz test: CAMP_FUZZ_SEED when set, else the
 * test's own default. Fuzz failures print the seed they ran, so
 * `CAMP_FUZZ_SEED=<seed> ctest -R <test>` replays one exactly.
 */
#ifndef CAMP_TESTS_FUZZ_SEED_HPP
#define CAMP_TESTS_FUZZ_SEED_HPP

#include <cstdint>

#include "support/env.hpp"

/**
 * CAMP_FUZZ_SEED through support::env_seed (decimal or 0x hex over the
 * full 64-bit range); @p fallback when the variable is unset. Junk
 * throws camp::InvalidArgument, a std::invalid_argument, so a typo
 * fails the test instead of silently running another seed.
 */
inline std::uint64_t
fuzz_seed(std::uint64_t fallback)
{
    return camp::support::env_seed("CAMP_FUZZ_SEED", fallback);
}

#endif // CAMP_TESTS_FUZZ_SEED_HPP
