#include "serve/config.hpp"

#include "support/env.hpp"

namespace camp::serve {

using support::env_flag;
using support::env_nonnegative_u64;
using support::env_positive_u64;
using support::env_positive_unsigned;

ServeConfig
serve_config_from_env()
{
    ServeConfig config;
    config.limits.max_queue_depth =
        static_cast<std::size_t>(env_positive_u64(
            "CAMP_SERVE_DEPTH", config.limits.max_queue_depth));
    config.limits.retry_budget = env_positive_u64(
        "CAMP_SERVE_RETRY_BUDGET", config.limits.retry_budget);
    config.max_backlog_us = static_cast<double>(env_positive_u64(
        "CAMP_SERVE_BACKLOG_US",
        static_cast<std::uint64_t>(config.max_backlog_us)));
    config.wave_size = static_cast<std::size_t>(
        env_positive_u64("CAMP_SERVE_WAVE", config.wave_size));
    config.max_inflight_waves = env_positive_unsigned(
        "CAMP_SERVE_INFLIGHT", config.max_inflight_waves);
    config.default_deadline =
        support::Clock::duration(env_nonnegative_u64(
            "CAMP_SERVE_DEADLINE_US",
            static_cast<std::uint64_t>(
                config.default_deadline.count())));
    config.backoff_base = support::Clock::duration(env_positive_u64(
        "CAMP_SERVE_BACKOFF_US",
        static_cast<std::uint64_t>(config.backoff_base.count())));
    config.max_attempts =
        env_positive_unsigned("CAMP_SERVE_ATTEMPTS", config.max_attempts);
    config.wall_clock = env_flag("CAMP_SERVE_WALL", config.wall_clock);
    config.use_opcache = env_flag("CAMP_OPCACHE", config.use_opcache);
    config.breaker.open_threshold = env_positive_unsigned(
        "CAMP_SERVE_BREAKER_THRESHOLD", config.breaker.open_threshold);
    config.breaker.probe_after = env_positive_u64(
        "CAMP_SERVE_BREAKER_PROBE", config.breaker.probe_after);
    return config;
}

} // namespace camp::serve
