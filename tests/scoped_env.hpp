/**
 * @file
 * Environment helpers for the tests of CAMP_* knobs: a scoped
 * override that restores the previous value (CI legs export some of
 * the knobs), and the table-driven rejection check every hardened
 * parser is held to.
 */
#ifndef CAMP_TESTS_SCOPED_ENV_HPP
#define CAMP_TESTS_SCOPED_ENV_HPP

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "support/errors.hpp"

/** Sets @p name to @p value for one scope, then restores the previous
 * value (or its absence) — CI legs export CAMP_SHARDS and friends. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    const char* name_;
    bool had_ = false;
    std::string old_;
};

/** Each of @p values in @p name must make @p parse throw
 * camp::InvalidArgument naming the variable. */
inline void
expect_env_rejects(const std::string& name,
                   const std::vector<const char*>& values,
                   const std::function<void()>& parse)
{
    for (const char* value : values) {
        const ScopedEnv env(name.c_str(), value);
        try {
            parse();
            ADD_FAILURE() << name << "='" << value
                          << "' must throw InvalidArgument";
        } catch (const camp::InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << "the error must name the variable: " << e.what();
        }
    }
}

/** Junk every positive numeric knob rejects: not a number, trailing
 * garbage, set-but-empty, zero, negative, and beyond long long. */
inline const std::vector<const char*> kJunkValues = {
    "abc", "12k", "", "0", "-3", "123456789012345678901234567890"};

#endif // CAMP_TESTS_SCOPED_ENV_HPP
