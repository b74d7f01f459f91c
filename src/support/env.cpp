#include "support/env.hpp"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "support/errors.hpp"

namespace camp::support {

namespace {

[[noreturn]] void
bad_value(const char* name, const char* env, const char* expected)
{
    throw InvalidArgument(std::string(name) + " must be " + expected +
                          ", got '" + env + "'");
}

std::uint64_t
parse_integer(const char* name, std::uint64_t fallback,
              long long minimum, const char* expected,
              std::uint64_t maximum = UINT64_MAX)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    if (env[0] == '\0')
        bad_value(name, env, expected);
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(env, &end, 10);
    // errno catches what the digit scan cannot: a syntactically valid
    // number whose magnitude saturates strtoll (ERANGE).
    if (end == env || *end != '\0' || errno == ERANGE || v < minimum ||
        static_cast<std::uint64_t>(v) > maximum)
        bad_value(name, env, expected);
    return static_cast<std::uint64_t>(v);
}

} // namespace

std::uint64_t
env_positive_u64(const char* name, std::uint64_t fallback)
{
    return parse_integer(name, fallback, 1, "a positive integer");
}

unsigned
env_positive_unsigned(const char* name, unsigned fallback)
{
    return static_cast<unsigned>(parse_integer(
        name, fallback, 1, "a positive integer below 2^32", UINT_MAX));
}

std::uint64_t
env_nonnegative_u64(const char* name, std::uint64_t fallback)
{
    return parse_integer(name, fallback, 0, "a nonnegative integer");
}

bool
env_flag(const char* name, bool fallback)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    const std::string value(env);
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    bad_value(name, env, "a boolean (0/1, false/true, off/on)");
}

} // namespace camp::support
