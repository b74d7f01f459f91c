/**
 * @file
 * Config-described multi-tenant workload generator for the serving
 * layer: mixed op kinds (general products and squarings), log-uniform
 * bit-width distributions, Poisson arrivals with burst clumps,
 * repeated operand pairs, per-tenant priority classes, and optional
 * per-request deadlines. Fully deterministic from one seed (camp::Rng)
 * so a soak run replays exactly — CAMP_FUZZ_SEED overrides the seed,
 * matching the repo-wide fuzz-replay convention.
 */
#ifndef CAMP_SERVE_WORKLOAD_HPP
#define CAMP_SERVE_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mpn/natural.hpp"

namespace camp::serve {

/** Scheduling class; High sheds last. */
enum class Priority
{
    High = 0,
    Normal = 1,
    Low = 2,
};

const char* priority_name(Priority priority);

/** Operation mix element. */
enum class OpKind
{
    Mul,    ///< general product a*b
    Square, ///< squaring (b aliases a)
};

/** One client request as the server sees it. */
struct Request
{
    std::uint64_t id = 0;
    std::string tenant;
    Priority priority = Priority::Normal;
    OpKind op = OpKind::Mul;
    mpn::Natural a;
    mpn::Natural b;
    std::uint64_t arrival_us = 0;  ///< virtual arrival time
    std::uint64_t deadline_us = 0; ///< absolute; 0 = none
};

/** One tenant of the generated mix. */
struct TenantSpec
{
    std::string name;
    Priority priority = Priority::Normal;
    double share = 1.0; ///< relative traffic weight
};

/** The generator's whole description; see generate_workload. */
struct WorkloadSpec
{
    std::uint64_t seed = 0x5e47e5eedull;
    std::size_t requests = 256;

    /** Poisson arrivals at this mean spacing... */
    double mean_interarrival_us = 200.0;
    /** ...except bursts: with this probability an arrival opens a
     * clump of burst_len requests landing at the same instant. */
    double burst_fraction = 0.15;
    std::size_t burst_len = 8;

    /** Operand widths, log-uniform in [min_bits, max_bits]. */
    std::uint64_t min_bits = 64;
    std::uint64_t max_bits = 4096;

    double square_fraction = 0.2; ///< squarings in the op mix
    double repeat_fraction = 0.1; ///< re-submissions of an earlier pair

    /** Fraction of requests carrying a deadline, set to arrival +
     * [slack, 2*slack) microseconds. */
    double deadline_fraction = 0.25;
    std::uint64_t deadline_slack_us = 5000;

    /** Traffic mix; empty = the default three-class mix
     * (alpha/High, beta/Normal, gamma/Low, equal shares). */
    std::vector<TenantSpec> tenants;
};

/** The default alpha/beta/gamma tenant mix. */
std::vector<TenantSpec> default_tenants();

/**
 * Generate the workload described by @p spec: requests sorted by
 * arrival time, ids 0..requests-1 in arrival order. Bit-identical for
 * equal specs (the replay contract). Throws camp::InvalidArgument on
 * a degenerate spec (no requests, min_bits > max_bits, fractions
 * outside [0, 1], empty tenant name, nonpositive share).
 */
std::vector<Request> generate_workload(const WorkloadSpec& spec);

/**
 * @p defaults with the environment applied: CAMP_FUZZ_SEED (decimal
 * or 0x hex, support::env_seed) overrides the seed,
 * CAMP_SERVE_REQUESTS the request count. A junk value of either
 * throws camp::InvalidArgument naming the variable.
 */
WorkloadSpec workload_spec_from_env(WorkloadSpec defaults = {});

} // namespace camp::serve

#endif // CAMP_SERVE_WORKLOAD_HPP
