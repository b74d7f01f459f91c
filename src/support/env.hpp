/**
 * @file
 * Hardened CAMP_* environment parsing. Every numeric CAMP_* knob of the
 * library goes through these helpers so misconfiguration is loud:
 * junk, overflow (out of the field's range), and *empty* values all
 * throw camp::InvalidArgument naming the offending variable — an empty
 * export is almost always a broken CI substitution, and silently
 * falling back to the default there hides the mistake.
 */
#ifndef CAMP_SUPPORT_ENV_HPP
#define CAMP_SUPPORT_ENV_HPP

#include <cstdint>

namespace camp::support {

/** @p name as a strictly positive integer; @p fallback when unset.
 * Throws camp::InvalidArgument (naming @p name) on junk, < 1,
 * overflow, or an empty value. */
std::uint64_t env_positive_u64(const char* name, std::uint64_t fallback);

/** env_positive_u64 for an `unsigned` field: values above UINT_MAX
 * throw too, instead of wrapping through a narrowing cast. */
unsigned env_positive_unsigned(const char* name, unsigned fallback);

/** Like env_positive_u64, but 0 is allowed (= disabled). */
std::uint64_t env_nonnegative_u64(const char* name,
                                  std::uint64_t fallback);

/** Boolean knob: "0"/"1" (also "false"/"true", "off"/"on"). Throws
 * camp::InvalidArgument on anything else, empty included. */
bool env_flag(const char* name, bool fallback);

/** A finite floating-point number (strtod syntax: decimal, exponent or
 * hex float) spanning the whole value; @p fallback when unset. An
 * empty value, a leading blank, junk, trailing characters, a value out
 * of double range, inf or nan throw camp::InvalidArgument naming
 * @p name, so a typo fails instead of reading as a prefix. Range
 * checks stay with the caller. */
double env_double(const char* name, double fallback);

/** A 64-bit seed (CAMP_FUZZ_SEED): decimal or 0x-prefixed hex over the
 * full 64-bit range; @p fallback when unset. An empty value, junk, a
 * sign, trailing characters or overflow throw camp::InvalidArgument
 * naming @p name, so a typo fails instead of running another seed. */
std::uint64_t env_seed(const char* name, std::uint64_t fallback);

} // namespace camp::support

#endif // CAMP_SUPPORT_ENV_HPP
