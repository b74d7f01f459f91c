/**
 * @file
 * Serving-layer configuration: admission limits, deadlines, the retry
 * policy, the wave pipeline depth, the clock source, and the
 * circuit-breaker thresholds. Every knob has a `CAMP_SERVE_*`
 * environment override (serve_config_from_env) so soak runs and CI
 * legs can reshape the server without recompiling — mirroring the exec
 * plane's CAMP_SHARDS/CAMP_BACKEND convention.
 *
 * Time units: every duration-valued knob is a support::Clock::duration
 * (std::chrono::microseconds). On the default virtual clock these are
 * *virtual* microseconds of the deterministic ledger; on a wall-clock
 * server the same quantities are interpreted against real time for
 * reconciliation only — the decisions still run on the virtual ledger
 * (DESIGN.md §15). The typed unit is what makes that safe: a
 * wall-clock server cannot misread a backoff or retry-after hint as a
 * different unit, because the type carries it.
 */
#ifndef CAMP_SERVE_CONFIG_HPP
#define CAMP_SERVE_CONFIG_HPP

#include <cstddef>
#include <cstdint>

#include "support/clock.hpp"

namespace camp::serve {

/** Per-tenant admission and retry bounds. */
struct TenantLimits
{
    /** Bounded admission queue: an arriving request finding this many
     * of its tenant's requests already queued is shed. */
    std::size_t max_queue_depth = 64;

    /** Retries the tenant may spend across a whole workload; once
     * exhausted, retryable failures go straight to the CPU path. */
    std::uint64_t retry_budget = 64;
};

/** Per-device circuit breaker thresholds (see serve/breaker.hpp). */
struct BreakerPolicy
{
    /** Consecutive failure events (thrown batch = 1, each
     * detected-faulty product = 1) that trip Closed -> Open. */
    unsigned open_threshold = 4;

    /** Fallback products served while Open before the breaker moves to
     * HalfOpen and probes the device again. */
    std::uint64_t probe_after = 32;
};

/** The server's complete policy surface. */
struct ServeConfig
{
    TenantLimits limits;

    /** Global backlog bound, in microseconds of estimated device
     * time: when the queued work exceeds this, load is shed — lowest
     * priority first. (Named max_backlog_us: it bounds the *queued*
     * estimate, not the dispatched wave pipeline — that is
     * max_inflight_waves.) */
    double max_backlog_us = 50000.0;

    /** Requests dispatched per coalesced device wave. */
    std::size_t wave_size = 16;

    /** Waves the dispatch pipeline may overlap: wave n+1 may be
     * dispatched while waves n-k..n are still in flight, k <
     * max_inflight_waves. The engine owns one pooled wave buffer per
     * wave in flight. 1 = the classic one-wave-at-a-time engine. */
    unsigned max_inflight_waves = 1;

    /** Deadline assigned at admission to requests that carry none
     * (after arrival); zero = no implicit deadline. */
    support::Clock::duration default_deadline{0};

    /** Exponential backoff base: retry attempt n waits
     * backoff_base * 2^(n-1) on the serving clock. */
    support::Clock::duration backoff_base{100};

    /** Dispatch attempts per request (first try included). */
    unsigned max_attempts = 3;

    /** Treat a detected-faulty product as a retryable failure (the
     * soak's recovery path); when false the flagged product is
     * delivered and only counted. */
    bool retry_on_faulty = true;

    /** Execute waves against a WallClock (wall timestamps
     * reconciled per request) instead of the VirtualClock. A wave the
     * engine would join before returning runs inline; only a wave that
     * outlives the pump gets a worker thread, overlapping the client.
     * Decisions are identical either way — the differential-oracle
     * contract. */
    bool wall_clock = false;

    /** Consult a per-server operand-digest product cache at dispatch
     * (support::OpCache, DESIGN.md §16): repeated operand pairs — the
     * workload generator's repeat_fraction traffic — are served from
     * the verified cache instead of re-executing on the device. On a
     * host device (kind() == Host) only requests whose smaller operand
     * has at least mpn::mul_tuning().karatsuba limbs use the cache: a
     * smaller product costs less than a lookup. Simulated and
     * modelled devices cache every product. The virtual-time ledger
     * is unchanged (hits keep their model cost), so the report is
     * identical either way except opcache.* metrics.
     * Env: CAMP_OPCACHE (shared with the mpn-layer global cache). */
    bool use_opcache = true;

    BreakerPolicy breaker;
};

/**
 * Defaults overridden by the environment: CAMP_SERVE_DEPTH,
 * CAMP_SERVE_RETRY_BUDGET, CAMP_SERVE_BACKLOG_US, CAMP_SERVE_WAVE,
 * CAMP_SERVE_INFLIGHT, CAMP_SERVE_DEADLINE_US, CAMP_SERVE_BACKOFF_US,
 * CAMP_SERVE_ATTEMPTS, CAMP_SERVE_WALL, CAMP_SERVE_BREAKER_THRESHOLD,
 * CAMP_SERVE_BREAKER_PROBE. Junk, overflowing, or empty values throw
 * camp::InvalidArgument naming the variable — never silently default.
 */
ServeConfig serve_config_from_env();

} // namespace camp::serve

#endif // CAMP_SERVE_CONFIG_HPP
