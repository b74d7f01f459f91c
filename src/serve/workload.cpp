#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/env.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace camp::serve {

using mpn::Natural;

const char*
priority_name(Priority priority)
{
    switch (priority) {
    case Priority::High: return "high";
    case Priority::Normal: return "normal";
    case Priority::Low: return "low";
    }
    return "unknown";
}

std::vector<TenantSpec>
default_tenants()
{
    return {
        {"alpha", Priority::High, 1.0},
        {"beta", Priority::Normal, 1.0},
        {"gamma", Priority::Low, 1.0},
    };
}

namespace {

void
check_fraction(const char* name, double value)
{
    if (!(value >= 0.0 && value <= 1.0))
        throw InvalidArgument(std::string(name) +
                              " must be within [0, 1]");
}

/** Log-uniform draw in [lo, hi]. */
std::uint64_t
log_uniform_bits(Rng& rng, std::uint64_t lo, std::uint64_t hi)
{
    if (lo == hi)
        return lo;
    const double span = std::log(static_cast<double>(hi) /
                                 static_cast<double>(lo));
    const double bits =
        static_cast<double>(lo) * std::exp(rng.uniform() * span);
    return std::min(hi, std::max(lo, static_cast<std::uint64_t>(bits)));
}

} // namespace

std::vector<Request>
generate_workload(const WorkloadSpec& spec)
{
    if (spec.requests == 0)
        throw InvalidArgument("workload needs at least one request");
    if (spec.min_bits == 0 || spec.min_bits > spec.max_bits)
        throw InvalidArgument(
            "workload bit range needs 1 <= min_bits <= max_bits");
    if (!(spec.mean_interarrival_us > 0.0))
        throw InvalidArgument("mean_interarrival_us must be positive");
    if (spec.burst_len == 0)
        throw InvalidArgument("burst_len must be >= 1");
    check_fraction("burst_fraction", spec.burst_fraction);
    check_fraction("square_fraction", spec.square_fraction);
    check_fraction("repeat_fraction", spec.repeat_fraction);
    check_fraction("deadline_fraction", spec.deadline_fraction);

    const std::vector<TenantSpec> tenants =
        spec.tenants.empty() ? default_tenants() : spec.tenants;
    double total_share = 0.0;
    for (const TenantSpec& tenant : tenants) {
        if (tenant.name.empty())
            throw InvalidArgument("tenant name must not be empty");
        if (!(tenant.share > 0.0))
            throw InvalidArgument("tenant share must be positive: " +
                                  tenant.name);
        total_share += tenant.share;
    }

    Rng rng(spec.seed);
    std::vector<Request> out;
    out.reserve(spec.requests);
    std::vector<std::pair<Natural, Natural>> history;
    double clock_us = 0.0;
    std::size_t burst_remaining = 0;

    for (std::size_t i = 0; i < spec.requests; ++i) {
        // Arrival process: exponential gaps, except inside a burst
        // clump where requests land at the same instant.
        if (burst_remaining > 0) {
            --burst_remaining;
        } else {
            clock_us += -spec.mean_interarrival_us *
                        std::log(1.0 - rng.uniform());
            if (rng.uniform() < spec.burst_fraction)
                burst_remaining = spec.burst_len - 1;
        }

        // Tenant: weighted by share.
        double pick = rng.uniform() * total_share;
        std::size_t t = 0;
        for (; t + 1 < tenants.size(); ++t) {
            if (pick < tenants[t].share)
                break;
            pick -= tenants[t].share;
        }

        Request request;
        request.id = i;
        request.tenant = tenants[t].name;
        request.priority = tenants[t].priority;
        request.arrival_us = static_cast<std::uint64_t>(clock_us);

        if (!history.empty() &&
            rng.uniform() < spec.repeat_fraction) {
            // Re-submission of an earlier operand pair (cache-friendly
            // client behaviour; also exercises duplicate coalescing).
            const auto& prev = history[rng.below(history.size())];
            request.a = prev.first;
            request.b = prev.second;
            request.op = prev.first == prev.second ? OpKind::Square
                                                  : OpKind::Mul;
        } else {
            const std::uint64_t bits_a =
                log_uniform_bits(rng, spec.min_bits, spec.max_bits);
            request.a = Natural::random_bits(rng, bits_a);
            if (rng.uniform() < spec.square_fraction) {
                request.op = OpKind::Square;
                request.b = request.a;
            } else {
                request.op = OpKind::Mul;
                const std::uint64_t bits_b = log_uniform_bits(
                    rng, spec.min_bits, spec.max_bits);
                request.b = Natural::random_bits(rng, bits_b);
            }
            history.emplace_back(request.a, request.b);
        }

        if (rng.uniform() < spec.deadline_fraction)
            request.deadline_us = request.arrival_us +
                                  spec.deadline_slack_us +
                                  rng.below(spec.deadline_slack_us + 1);
        out.push_back(std::move(request));
    }
    return out;
}

WorkloadSpec
workload_spec_from_env(WorkloadSpec defaults)
{
    defaults.seed = support::env_seed("CAMP_FUZZ_SEED", defaults.seed);
    defaults.requests =
        static_cast<std::size_t>(support::env_positive_u64(
            "CAMP_SERVE_REQUESTS", defaults.requests));
    return defaults;
}

} // namespace camp::serve
