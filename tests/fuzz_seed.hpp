/**
 * @file
 * The seed of every fuzz test: CAMP_FUZZ_SEED when set, else the
 * test's own default. Fuzz failures print the seed they ran, so
 * `CAMP_FUZZ_SEED=<seed> ctest -R <test>` replays one exactly.
 */
#ifndef CAMP_TESTS_FUZZ_SEED_HPP
#define CAMP_TESTS_FUZZ_SEED_HPP

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

/**
 * CAMP_FUZZ_SEED as decimal or 0x-prefixed hex over the full 64-bit
 * range; @p fallback when the variable is unset. An empty value, junk,
 * a sign, trailing characters or overflow throw std::invalid_argument,
 * so a typo fails the test instead of silently running another seed.
 */
inline std::uint64_t
fuzz_seed(std::uint64_t fallback)
{
    const char* env = std::getenv("CAMP_FUZZ_SEED");
    if (env == nullptr)
        return fallback;
    const bool hex = env[0] == '0' && (env[1] == 'x' || env[1] == 'X');
    const char* digits = hex ? env + 2 : env;
    const auto first = static_cast<unsigned char>(digits[0]);
    char* end = nullptr;
    errno = 0;
    const unsigned long long seed =
        std::strtoull(digits, &end, hex ? 16 : 10);
    // strtoull skips blanks and accepts a sign: demand a digit first.
    if (!(hex ? std::isxdigit(first) : std::isdigit(first)) ||
        *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(
            std::string("CAMP_FUZZ_SEED: expected a decimal or 0x-hex "
                        "64-bit seed, got '") +
            env + "'");
    return seed;
}

#endif // CAMP_TESTS_FUZZ_SEED_HPP
