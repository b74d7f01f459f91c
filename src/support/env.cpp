#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
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

double
env_double(const char* name, double fallback)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(env, &end);
    // strtod skips leading blanks and reads a prefix: demand that the
    // whole value is the number.
    if (end == env || *end != '\0' ||
        std::isspace(static_cast<unsigned char>(env[0])) ||
        errno == ERANGE || !std::isfinite(v))
        bad_value(name, env, "a finite number");
    return v;
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

std::uint64_t
env_seed(const char* name, std::uint64_t fallback)
{
    const char* env = std::getenv(name);
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
        bad_value(name, env, "a decimal or 0x-hex 64-bit seed");
    return seed;
}

} // namespace camp::support
