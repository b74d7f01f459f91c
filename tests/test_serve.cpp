/**
 * @file
 * Serving-layer acceptance suite: workload replay determinism,
 * deterministic priority-ordered load-shedding, deadline enforcement
 * (admission / dispatch / late completion), the typed-error retry
 * policy with per-tenant budgets, circuit-breaker quarantine and
 * recovery, shard-count invariance of the full serve outcome, exact
 * conservation accounting under armed fault injection, and thread-safe
 * Ledger fault-stats folding.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/cpu_device.hpp"
#include "exec/scheduler.hpp"
#include "exec/sim_device.hpp"
#include "exec/wave.hpp"
#include "fuzz_seed.hpp"
#include "mpapca/cost_model.hpp"
#include "mpapca/ledger.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "serve/breaker.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "support/errors.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace exec = camp::exec;
namespace serve = camp::serve;
namespace sim = camp::sim;
using camp::mpn::Natural;

namespace {

/** Device whose batch products come back corrupted *and flagged* for
 * the first @p sick_batches batches, exact afterwards — the breaker's
 * detection signal, shaped like an armed SimDevice run. */
class FaultyBatchDevice : public exec::Device
{
  public:
    explicit FaultyBatchDevice(unsigned sick_batches)
        : sick_remaining_(sick_batches)
    {
    }

    const char* name() const override { return "faulty-batch"; }
    exec::DeviceKind kind() const override
    {
        return exec::DeviceKind::Accelerator;
    }
    std::uint64_t base_cap_bits() const override { return 0; }

    exec::MulOutcome mul(const Natural& a, const Natural& b) override
    {
        return exec::MulOutcome{a * b, 0};
    }

    sim::BatchResult
    mul_batch_wave(exec::WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>&, unsigned) override
    {
        sim::BatchResult result;
        result.per_product.resize(items.size());
        const bool sick = sick_remaining_ > 0;
        if (sick)
            --sick_remaining_;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const auto [a, b] = wave.operand_pair(items[i]);
            Natural product = a * b;
            if (sick) {
                product = product + Natural(1);
                result.per_product[i].faulty = true;
                result.per_product[i].injected = 1;
                ++result.faulty;
                ++result.injected;
            }
            wave.set_result(items[i], product, sick);
        }
        return result;
    }

    exec::CostEstimate cost(std::uint64_t, std::uint64_t) const override
    {
        return {};
    }

    void heal() { sick_remaining_ = 0; }
    unsigned batches() const { return batches_; }

  private:
    unsigned sick_remaining_;
    unsigned batches_ = 0;
};

/** Device whose batch path throws for the first @p throws batches,
 * then heals and computes exactly. */
class HealingThrowDevice : public exec::Device
{
  public:
    HealingThrowDevice(std::function<void()> thrower, unsigned throws)
        : thrower_(std::move(thrower)), throw_remaining_(throws)
    {
    }

    const char* name() const override { return "healing-throw"; }
    exec::DeviceKind kind() const override
    {
        return exec::DeviceKind::Accelerator;
    }
    std::uint64_t base_cap_bits() const override { return 0; }

    exec::MulOutcome mul(const Natural& a, const Natural& b) override
    {
        return exec::MulOutcome{a * b, 0};
    }

    sim::BatchResult
    mul_batch_wave(exec::WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>&, unsigned) override
    {
        if (throw_remaining_ > 0) {
            --throw_remaining_;
            thrower_();
        }
        sim::BatchResult result;
        for (const std::size_t item : items) {
            const auto [a, b] = wave.operand_pair(item);
            wave.set_result(item, a * b);
        }
        result.per_product.resize(items.size());
        return result;
    }

    exec::CostEstimate cost(std::uint64_t, std::uint64_t) const override
    {
        return {};
    }

  private:
    std::function<void()> thrower_;
    unsigned throw_remaining_;
};

/** A hand-written request (tenant priority consistent per tenant). */
serve::Request
make_request(std::uint64_t id, const std::string& tenant,
             serve::Priority priority, std::uint64_t arrival_us,
             std::uint64_t deadline_us = 0, std::uint64_t bits = 256)
{
    serve::Request request;
    request.id = id;
    request.tenant = tenant;
    request.priority = priority;
    camp::Rng rng(0x9000 + id);
    request.a = Natural::random_bits(rng, bits);
    request.b = Natural::random_bits(rng, bits);
    request.arrival_us = arrival_us;
    request.deadline_us = deadline_us;
    return request;
}

/** Every Completed outcome must carry the exact product. */
void
expect_exact_completions(const std::vector<serve::Request>& workload,
                         const serve::ServeReport& report)
{
    ASSERT_EQ(report.outcomes.size(), workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
        const serve::Outcome& outcome = report.outcomes[i];
        EXPECT_EQ(outcome.id, workload[i].id) << i;
        if (outcome.status == serve::RequestStatus::Completed) {
            ASSERT_EQ(outcome.product,
                      workload[i].a * workload[i].b)
                << "wrong result for request " << outcome.id;
        }
    }
}

/** Two reports of one workload agree field by field: outcomes
 * (products included), shed/timeout sets, wave count, virtual timeline,
 * tenant ledgers and latency percentiles. The product cache's contract
 * is exactly this between its on and off runs (DESIGN.md §16). */
void
expect_reports_equal(const serve::ServeReport& on,
                     const serve::ServeReport& off)
{
    ASSERT_EQ(on.outcomes.size(), off.outcomes.size());
    for (std::size_t i = 0; i < on.outcomes.size(); ++i) {
        const serve::Outcome& a = on.outcomes[i];
        const serve::Outcome& b = off.outcomes[i];
        EXPECT_EQ(a.id, b.id) << i;
        EXPECT_EQ(a.status, b.status) << i;
        EXPECT_EQ(a.error, b.error) << i;
        EXPECT_EQ(a.retry_after.count(), b.retry_after.count()) << i;
        EXPECT_EQ(a.latency_us, b.latency_us) << i;
        EXPECT_EQ(a.wall_completion_us, b.wall_completion_us) << i;
        EXPECT_EQ(a.skew_us, b.skew_us) << i;
        EXPECT_EQ(a.attempts, b.attempts) << i;
        EXPECT_EQ(a.fallback, b.fallback) << i;
        EXPECT_EQ(a.faulty_seen, b.faulty_seen) << i;
        ASSERT_EQ(a.product, b.product) << "request " << a.id;
    }
    EXPECT_EQ(on.shed_ids, off.shed_ids);
    EXPECT_EQ(on.timeout_ids, off.timeout_ids);
    EXPECT_EQ(on.waves, off.waves);
    EXPECT_EQ(on.virtual_end_us, off.virtual_end_us);
    ASSERT_EQ(on.tenants.size(), off.tenants.size());
    for (std::size_t i = 0; i < on.tenants.size(); ++i) {
        const serve::TenantReport& a = on.tenants[i];
        const serve::TenantReport& b = off.tenants[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.counters.submitted, b.counters.submitted);
        EXPECT_EQ(a.counters.admitted, b.counters.admitted);
        EXPECT_EQ(a.counters.completed, b.counters.completed);
        EXPECT_EQ(a.counters.failed, b.counters.failed);
        EXPECT_EQ(a.latencies_us, b.latencies_us) << a.name;
        EXPECT_EQ(a.p50_us, b.p50_us);
        EXPECT_EQ(a.p95_us, b.p95_us);
        EXPECT_EQ(a.p99_us, b.p99_us);
    }
}

std::vector<serve::RequestStatus>
statuses_of(const serve::ServeReport& report)
{
    std::vector<serve::RequestStatus> out;
    out.reserve(report.outcomes.size());
    for (const serve::Outcome& outcome : report.outcomes)
        out.push_back(outcome.status);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

TEST(Workload, ReplayIsBitIdentical)
{
    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0x7ea5eed);
    spec.requests = 200;
    const auto first = serve::generate_workload(spec);
    const auto second = serve::generate_workload(spec);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].id, second[i].id);
        EXPECT_EQ(first[i].tenant, second[i].tenant);
        EXPECT_EQ(first[i].priority, second[i].priority);
        EXPECT_EQ(first[i].op, second[i].op);
        EXPECT_EQ(first[i].a, second[i].a) << i;
        EXPECT_EQ(first[i].b, second[i].b) << i;
        EXPECT_EQ(first[i].arrival_us, second[i].arrival_us);
        EXPECT_EQ(first[i].deadline_us, second[i].deadline_us);
    }

    serve::WorkloadSpec other = spec;
    other.seed = spec.seed + 1;
    const auto different = serve::generate_workload(other);
    bool any_difference = false;
    for (std::size_t i = 0; i < first.size(); ++i)
        if (first[i].a != different[i].a) {
            any_difference = true;
            break;
        }
    EXPECT_TRUE(any_difference) << "the seed must matter";
}

TEST(Workload, GeneratedShapeMatchesSpec)
{
    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0x5a5e);
    spec.requests = 400;
    const auto workload = serve::generate_workload(spec);
    ASSERT_EQ(workload.size(), 400u);

    bool sorted = true;
    std::size_t squares = 0, deadlines = 0;
    std::size_t tenants_seen[3] = {0, 0, 0};
    for (std::size_t i = 0; i < workload.size(); ++i) {
        const serve::Request& request = workload[i];
        EXPECT_EQ(request.id, i);
        if (i > 0 &&
            request.arrival_us < workload[i - 1].arrival_us)
            sorted = false;
        EXPECT_GE(request.a.bits(), 1u);
        EXPECT_LE(request.a.bits(), spec.max_bits);
        if (request.op == serve::OpKind::Square) {
            ++squares;
            EXPECT_EQ(request.a, request.b);
        }
        if (request.deadline_us != 0) {
            ++deadlines;
            EXPECT_GT(request.deadline_us, request.arrival_us);
        }
        if (request.tenant == "alpha") {
            ++tenants_seen[0];
            EXPECT_EQ(request.priority, serve::Priority::High);
        } else if (request.tenant == "beta") {
            ++tenants_seen[1];
        } else {
            EXPECT_EQ(request.tenant, "gamma");
            ++tenants_seen[2];
        }
    }
    EXPECT_TRUE(sorted) << "arrivals must be nondecreasing";
    EXPECT_GT(squares, 0u);
    EXPECT_GT(deadlines, 0u);
    for (const std::size_t count : tenants_seen)
        EXPECT_GT(count, 0u) << "every tenant gets traffic";
}

TEST(Workload, DegenerateSpecsRejected)
{
    serve::WorkloadSpec spec;
    spec.requests = 0;
    EXPECT_THROW(serve::generate_workload(spec),
                 camp::InvalidArgument);
    spec = {};
    spec.min_bits = 128;
    spec.max_bits = 64;
    EXPECT_THROW(serve::generate_workload(spec),
                 camp::InvalidArgument);
    spec = {};
    spec.burst_fraction = 1.5;
    EXPECT_THROW(serve::generate_workload(spec),
                 camp::InvalidArgument);
    spec = {};
    spec.tenants = {{"", serve::Priority::High, 1.0}};
    EXPECT_THROW(serve::generate_workload(spec),
                 camp::InvalidArgument);
    spec = {};
    spec.tenants = {{"solo", serve::Priority::High, 0.0}};
    EXPECT_THROW(serve::generate_workload(spec),
                 camp::InvalidArgument);
}

TEST(Workload, EnvironmentSeedAndCountApply)
{
    // Save/restore so a CI-level CAMP_FUZZ_SEED replay is unaffected.
    const char* saved_seed = std::getenv("CAMP_FUZZ_SEED");
    const std::string saved_seed_value =
        saved_seed != nullptr ? saved_seed : "";
    ::setenv("CAMP_FUZZ_SEED", "12345", 1);
    ::setenv("CAMP_SERVE_REQUESTS", "17", 1);
    const serve::WorkloadSpec spec = serve::workload_spec_from_env();
    EXPECT_EQ(spec.seed, 12345u);
    EXPECT_EQ(spec.requests, 17u);

    ::setenv("CAMP_SERVE_REQUESTS", "junk", 1);
    EXPECT_THROW(serve::workload_spec_from_env(),
                 camp::InvalidArgument);
    ::unsetenv("CAMP_SERVE_REQUESTS");
    if (saved_seed != nullptr)
        ::setenv("CAMP_FUZZ_SEED", saved_seed_value.c_str(), 1);
    else
        ::unsetenv("CAMP_FUZZ_SEED");
}

TEST(ServeConfig, EnvironmentParsingAndValidation)
{
    const serve::ServeConfig defaults = serve::serve_config_from_env();
    EXPECT_EQ(defaults.limits.max_queue_depth, 64u);
    EXPECT_EQ(defaults.wave_size, 16u);

    ::setenv("CAMP_SERVE_DEPTH", "8", 1);
    ::setenv("CAMP_SERVE_RETRY_BUDGET", "5", 1);
    ::setenv("CAMP_SERVE_BACKLOG_US", "1000", 1);
    ::setenv("CAMP_SERVE_WAVE", "4", 1);
    ::setenv("CAMP_SERVE_INFLIGHT", "3", 1);
    ::setenv("CAMP_SERVE_DEADLINE_US", "0", 1);
    ::setenv("CAMP_SERVE_BACKOFF_US", "50", 1);
    ::setenv("CAMP_SERVE_ATTEMPTS", "2", 1);
    ::setenv("CAMP_SERVE_WALL", "1", 1);
    ::setenv("CAMP_SERVE_BREAKER_THRESHOLD", "3", 1);
    ::setenv("CAMP_SERVE_BREAKER_PROBE", "10", 1);
    const serve::ServeConfig config = serve::serve_config_from_env();
    EXPECT_EQ(config.limits.max_queue_depth, 8u);
    EXPECT_EQ(config.limits.retry_budget, 5u);
    EXPECT_EQ(config.max_backlog_us, 1000.0);
    EXPECT_EQ(config.wave_size, 4u);
    EXPECT_EQ(config.max_inflight_waves, 3u);
    EXPECT_EQ(config.default_deadline.count(), 0);
    EXPECT_EQ(config.backoff_base.count(), 50);
    EXPECT_EQ(config.max_attempts, 2u);
    EXPECT_TRUE(config.wall_clock);
    EXPECT_EQ(config.breaker.open_threshold, 3u);
    EXPECT_EQ(config.breaker.probe_after, 10u);

    ::setenv("CAMP_SERVE_WAVE", "nope", 1);
    EXPECT_THROW(serve::serve_config_from_env(),
                 camp::InvalidArgument);
    for (const char* name :
         {"CAMP_SERVE_DEPTH", "CAMP_SERVE_RETRY_BUDGET",
          "CAMP_SERVE_BACKLOG_US", "CAMP_SERVE_WAVE",
          "CAMP_SERVE_INFLIGHT", "CAMP_SERVE_DEADLINE_US",
          "CAMP_SERVE_BACKOFF_US", "CAMP_SERVE_ATTEMPTS",
          "CAMP_SERVE_WALL", "CAMP_SERVE_BREAKER_THRESHOLD",
          "CAMP_SERVE_BREAKER_PROBE"})
        ::unsetenv(name);
}

// ---------------------------------------------------------------------
// Server basics
// ---------------------------------------------------------------------

TEST(Server, FaultFreeWorkloadCompletesExactly)
{
    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0x5e12f3);
    spec.requests = 150;
    spec.max_bits = 2048;
    spec.deadline_fraction = 0.0; // no deadlines: everything completes
    const auto workload = serve::generate_workload(spec);

    exec::SimDevice device;
    serve::Server server(serve::ServeConfig{}, device);
    const serve::ServeReport report = server.process(workload);
    expect_exact_completions(workload, report);
    EXPECT_TRUE(report.conserved()) << report.table();
    EXPECT_EQ(report.totals.submitted, workload.size());
    EXPECT_EQ(report.totals.completed, workload.size());
    EXPECT_EQ(report.totals.failed, 0u);
    EXPECT_GT(report.waves, 0u);
    ASSERT_EQ(report.tenants.size(), 3u);
    for (const serve::TenantReport& tenant : report.tenants) {
        EXPECT_GT(tenant.counters.completed, 0u) << tenant.name;
        EXPECT_GE(tenant.p99_us, tenant.p50_us) << tenant.name;
        EXPECT_GT(tenant.p50_us, 0u) << tenant.name;
    }
    EXPECT_NE(report.table().find("serving report"),
              std::string::npos);
}

TEST(Server, IdenticalRunsProduceIdenticalReports)
{
    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0xd373);
    spec.requests = 250;
    spec.mean_interarrival_us = 1.0; // overload: shedding happens
    const auto workload = serve::generate_workload(spec);

    serve::ServeConfig config;
    config.limits.max_queue_depth = 8;
    config.max_backlog_us = 24.0;
    config.wave_size = 4;

    exec::SimDevice device_a;
    exec::SimDevice device_b;
    const serve::ServeReport first =
        serve::Server(config, device_a).process(workload);
    const serve::ServeReport second =
        serve::Server(config, device_b).process(workload);

    EXPECT_GT(first.shed_ids.size(), 0u)
        << "the overload must actually shed for this test to bite";
    EXPECT_EQ(first.shed_ids, second.shed_ids)
        << "deterministic shed set";
    EXPECT_EQ(first.timeout_ids, second.timeout_ids);
    EXPECT_EQ(statuses_of(first), statuses_of(second));
    EXPECT_EQ(first.waves, second.waves);
    EXPECT_TRUE(first.conserved());
    EXPECT_TRUE(second.conserved());

    // Shed outcomes carry a usable retry-after hint.
    for (const serve::Outcome& outcome : first.outcomes)
        if (outcome.status == serve::RequestStatus::ShedAdmission ||
            outcome.status == serve::RequestStatus::ShedEvicted) {
            EXPECT_EQ(outcome.error, camp::ErrorCode::Unavailable);
            EXPECT_GT(outcome.retry_after.count(), 0);
        }
}

TEST(Server, OpcacheInvariantUnderRepeatTraffic)
{
    // The product cache must change *costs only*, never behavior: on a
    // repeat-heavy workload under shedding pressure, the full
    // ServeReport — outcomes, products, shed/timeout sets, wave count,
    // virtual timeline, tenant ledgers and latency percentiles — is
    // identical with the cache on and off; only opcache.* stats may
    // differ. Hits keep the model cost in the wave, so the virtual
    // clock cannot diverge (DESIGN.md §16).
    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0x09cac8e);
    spec.requests = 300;
    spec.repeat_fraction = 0.6; // most traffic re-submits earlier pairs
    spec.mean_interarrival_us = 2.0; // overload: shed/deadline paths live
    const auto workload = serve::generate_workload(spec);

    serve::ServeConfig config;
    config.limits.max_queue_depth = 16;
    config.max_backlog_us = 64.0;
    config.wave_size = 4;

    exec::SimDevice device_on;
    exec::SimDevice device_off;
    config.use_opcache = true;
    serve::Server cached(config, device_on);
    const serve::ServeReport on = cached.process(workload);
    config.use_opcache = false;
    serve::Server uncached(config, device_off);
    const serve::ServeReport off = uncached.process(workload);

    // The cache saw the repeats; the uncached server has no cache.
    EXPECT_GT(cached.opcache_stats().hits, 0u);
    EXPECT_EQ(uncached.opcache_stats().hits +
                  uncached.opcache_stats().misses,
              0u);

    expect_reports_equal(on, off);
    EXPECT_GT(on.shed_ids.size(), 0u)
        << "the overload must actually shed for this test to bite";
    EXPECT_TRUE(on.conserved()) << on.table();
    EXPECT_TRUE(off.conserved()) << off.table();
    expect_exact_completions(workload, on);

    // A second pass of the same workload through the *same* cached
    // server hits on every previously-seen operand pair.
    const auto before = cached.opcache_stats();
    cached.process(workload);
    EXPECT_GT(cached.opcache_stats().hits, before.hits);
}

TEST(Server, ProductCacheAdmitsKaratsubaSizedProductsOnHost)
{
    // Product-cache admission (DESIGN.md §16): on a host device a
    // product whose smaller operand is below the Karatsuba threshold
    // is cheaper to recompute than to look up, so the cache never sees
    // it; Karatsuba-sized repeats still hit. Either way the report
    // equals the cache-off run field by field. A simulated device
    // caches every product, however small.
    const std::uint64_t karatsuba_bits =
        64 * camp::mpn::mul_tuning().karatsuba;
    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0xad3175);
    spec.requests = 240;
    spec.repeat_fraction = 0.6;
    serve::ServeConfig config;
    config.wave_size = 4;

    const auto serve_both = [&config](exec::Device& on_device,
                                      exec::Device& off_device,
                                      const std::vector<serve::Request>&
                                          workload) {
        config.use_opcache = true;
        serve::Server cached(config, on_device);
        const serve::ServeReport on = cached.process(workload);
        config.use_opcache = false;
        const serve::ServeReport off =
            serve::Server(config, off_device).process(workload);
        expect_reports_equal(on, off);
        EXPECT_TRUE(on.conserved()) << on.table();
        expect_exact_completions(workload, on);
        return cached.opcache_stats();
    };

    // Below Karatsuba size: every operand has fewer limbs than the
    // threshold.
    spec.min_bits = 64;
    spec.max_bits = karatsuba_bits - 64;
    const auto small = serve::generate_workload(spec);
    {
        exec::CpuDevice on_device, off_device;
        const camp::support::OpCacheStats stats =
            serve_both(on_device, off_device, small);
        EXPECT_EQ(stats.hits + stats.misses, 0u)
            << "sub-Karatsuba products bypass the cache on a host";
        EXPECT_EQ(stats.inserts, 0u);
    }
    {
        exec::SimDevice on_device, off_device;
        EXPECT_GT(serve_both(on_device, off_device, small).hits, 0u)
            << "a simulated device caches every product";
    }

    // At or above it: every operand has at least the threshold's limbs.
    spec.min_bits = karatsuba_bits - 63;
    spec.max_bits = 4 * karatsuba_bits;
    const auto large = serve::generate_workload(spec);
    exec::CpuDevice on_device, off_device;
    EXPECT_GT(serve_both(on_device, off_device, large).hits, 0u)
        << "Karatsuba-sized repeats must still hit on a host";
}

TEST(Server, ShedsLowestPriorityFirst)
{
    // Ten low-priority requests land first and fill the backlog; five
    // high-priority requests arrive at the same instant and must evict
    // the youngest low-priority work, deterministically.
    std::vector<serve::Request> workload;
    for (std::uint64_t i = 0; i < 10; ++i)
        workload.push_back(
            make_request(i, "gamma", serve::Priority::Low, 0));
    for (std::uint64_t i = 10; i < 15; ++i)
        workload.push_back(
            make_request(i, "alpha", serve::Priority::High, 0));

    serve::ServeConfig config;
    config.max_backlog_us = 8.0; // eight 1-us-clamped slots
    config.wave_size = 16;

    exec::SimDevice device;
    const serve::ServeReport report =
        serve::Server(config, device).process(workload);
    expect_exact_completions(workload, report);
    EXPECT_TRUE(report.conserved()) << report.table();

    // Low 0..7 admitted; low 8,9 shed at admission (no lower class to
    // evict); high 10..14 evict low 7,6,5,4,3.
    EXPECT_EQ(report.shed_ids,
              (std::vector<std::uint64_t>{3, 4, 5, 6, 7, 8, 9}));
    for (std::uint64_t id = 10; id < 15; ++id)
        EXPECT_EQ(report.outcomes[id].status,
                  serve::RequestStatus::Completed)
            << "high priority must never shed while low is queued";
    EXPECT_EQ(report.outcomes[8].status,
              serve::RequestStatus::ShedAdmission);
    EXPECT_EQ(report.outcomes[7].status,
              serve::RequestStatus::ShedEvicted);
    const serve::TenantReport* alpha = report.tenant("alpha");
    ASSERT_NE(alpha, nullptr);
    EXPECT_EQ(alpha->counters.completed, 5u);
}

TEST(Server, DeadlinesEnforcedAtEveryStage)
{
    exec::SimDevice device;

    // (a) Infeasible at admission: rejected, never computed.
    {
        std::vector<serve::Request> workload = {
            make_request(0, "alpha", serve::Priority::High, 10,
                         /*deadline=*/10)};
        const serve::ServeReport report =
            serve::Server(serve::ServeConfig{}, device)
                .process(workload);
        EXPECT_EQ(report.outcomes[0].status,
                  serve::RequestStatus::RejectedDeadline);
        EXPECT_EQ(report.outcomes[0].error,
                  camp::ErrorCode::DeadlineExceeded);
        EXPECT_EQ(report.outcomes[0].attempts, 0u)
            << "never dispatched";
        EXPECT_EQ(report.timeout_ids,
                  (std::vector<std::uint64_t>{0}));
        EXPECT_TRUE(report.conserved());
    }

    // (b) Expired while queued: dropped at dispatch, attempts == 0.
    {
        std::vector<serve::Request> workload;
        for (std::uint64_t i = 0; i < 3; ++i)
            workload.push_back(make_request(i, "alpha",
                                            serve::Priority::High, 0));
        workload.push_back(make_request(3, "alpha",
                                        serve::Priority::High, 0,
                                        /*deadline=*/3));
        serve::ServeConfig config;
        config.wave_size = 1; // head-of-line requests delay id 3
        const serve::ServeReport report =
            serve::Server(config, device).process(workload);
        expect_exact_completions(workload, report);
        EXPECT_EQ(report.outcomes[3].status,
                  serve::RequestStatus::TimedOut);
        EXPECT_EQ(report.outcomes[3].attempts, 0u)
            << "dropped at dispatch, never computed";
        EXPECT_TRUE(report.conserved());
    }

    // (c) Completed too late: computed, then discarded as timed out.
    {
        std::vector<serve::Request> workload;
        for (std::uint64_t i = 0; i < 9; ++i)
            workload.push_back(make_request(i, "alpha",
                                            serve::Priority::High, 0));
        workload.push_back(make_request(9, "alpha",
                                        serve::Priority::High, 0,
                                        /*deadline=*/5));
        const serve::ServeReport report =
            serve::Server(serve::ServeConfig{}, device)
                .process(workload);
        // One 10-entry wave costs ~10 virtual us > the 5 us deadline.
        EXPECT_EQ(report.outcomes[9].status,
                  serve::RequestStatus::TimedOut);
        EXPECT_EQ(report.outcomes[9].attempts, 1u)
            << "dispatched once, then cancelled at completion";
        EXPECT_TRUE(report.outcomes[9].product.is_zero())
            << "late products are discarded, not delivered";
        EXPECT_TRUE(report.conserved());
    }

    // (d) default_deadline applies to deadline-free requests.
    {
        std::vector<serve::Request> workload;
        for (std::uint64_t i = 0; i < 10; ++i)
            workload.push_back(make_request(i, "alpha",
                                            serve::Priority::High, 0));
        serve::ServeConfig config;
        config.default_deadline = camp::support::Clock::duration(5);
        const serve::ServeReport report =
            serve::Server(config, device).process(workload);
        EXPECT_GT(report.totals.timeouts, 0u)
            << "the implicit deadline must bite in a 10-us wave";
        EXPECT_TRUE(report.conserved());
    }
}

// ---------------------------------------------------------------------
// Retry policy over the typed error taxonomy
// ---------------------------------------------------------------------

TEST(Server, RetryableThrowsRecoverWithinBudget)
{
    HealingThrowDevice device(
        [] { throw camp::HardwareFault("fabric glitch"); },
        /*throws=*/2);
    std::vector<serve::Request> workload;
    for (std::uint64_t i = 0; i < 4; ++i)
        workload.push_back(
            make_request(i, "alpha", serve::Priority::High, 0));

    serve::ServeConfig config;
    config.max_attempts = 3;
    config.backoff_base = camp::support::Clock::duration(10);
    const serve::ServeReport report =
        serve::Server(config, device).process(workload);
    expect_exact_completions(workload, report);
    EXPECT_TRUE(report.conserved()) << report.table();
    EXPECT_EQ(report.totals.completed, 4u);
    EXPECT_EQ(report.totals.failed, 0u);
    EXPECT_EQ(report.totals.fallbacks, 0u)
        << "the device healed inside the attempt budget";
    EXPECT_EQ(report.totals.retries, 8u) << "two retries each";
    for (const serve::Outcome& outcome : report.outcomes)
        EXPECT_EQ(outcome.attempts, 3u);
    // Exponential backoff separates the attempts in virtual time.
    EXPECT_GT(report.virtual_end_us, 30u);
}

TEST(Server, FatalErrorsFailWithoutRetry)
{
    HealingThrowDevice device(
        [] { throw camp::InvalidArgument("bad operand"); },
        /*throws=*/1000);
    std::vector<serve::Request> workload;
    for (std::uint64_t i = 0; i < 3; ++i)
        workload.push_back(
            make_request(i, "beta", serve::Priority::Normal, 0));
    const serve::ServeReport report =
        serve::Server(serve::ServeConfig{}, device).process(workload);
    EXPECT_TRUE(report.conserved());
    EXPECT_EQ(report.totals.failed, 3u);
    EXPECT_EQ(report.totals.retries, 0u)
        << "InvalidArgument is not retryable";
    for (const serve::Outcome& outcome : report.outcomes) {
        EXPECT_EQ(outcome.status, serve::RequestStatus::Failed);
        EXPECT_EQ(outcome.error, camp::ErrorCode::InvalidArgument);
        EXPECT_EQ(outcome.attempts, 1u);
    }
}

TEST(Server, ExhaustedBudgetFallsBackToExactCpu)
{
    HealingThrowDevice device(
        [] { throw camp::HardwareFault("permanently sick"); },
        /*throws=*/1000000);
    std::vector<serve::Request> workload;
    for (std::uint64_t i = 0; i < 3; ++i)
        workload.push_back(
            make_request(i, "beta", serve::Priority::Normal, 0));

    serve::ServeConfig config;
    config.max_attempts = 2;
    config.limits.retry_budget = 1; // one retry for the whole tenant
    const serve::ServeReport report =
        serve::Server(config, device).process(workload);
    expect_exact_completions(workload, report);
    EXPECT_TRUE(report.conserved()) << report.table();
    EXPECT_EQ(report.totals.completed, 3u)
        << "the CPU path serves what the device cannot";
    EXPECT_EQ(report.totals.fallbacks, 3u);
    EXPECT_EQ(report.totals.retries, 1u) << "budget caps retries";
    for (const serve::Outcome& outcome : report.outcomes)
        EXPECT_TRUE(outcome.fallback);
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

TEST(Breaker, QuarantineProbeAndRecovery)
{
    auto inner = std::make_unique<FaultyBatchDevice>(/*sick=*/1000);
    FaultyBatchDevice* device = inner.get();
    serve::BreakerPolicy policy;
    policy.open_threshold = 4;
    policy.probe_after = 8;
    serve::BreakerDevice breaker(std::move(inner), policy);
    EXPECT_EQ(breaker.state(), serve::BreakerState::Closed);

    camp::Rng rng(fuzz_seed(0xb4ea6e4));
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 4; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 512),
                           Natural::random_bits(rng, 512));

    // Closed: the sick batch's flags pass through (the server's retry
    // policy owns per-product recovery) and trip the breaker.
    const sim::BatchResult sick = breaker.mul_batch(pairs);
    EXPECT_EQ(sick.faulty, 4u);
    EXPECT_EQ(breaker.state(), serve::BreakerState::Open)
        << "4 consecutive failures reach the threshold";
    EXPECT_EQ(breaker.stats().opens, 1u);

    // Open: quarantined batches are served exactly by the CPU path.
    const sim::BatchResult quarantined = breaker.mul_batch(pairs);
    EXPECT_EQ(quarantined.faulty, 0u);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(quarantined.products[i],
                  pairs[i].first * pairs[i].second)
            << i;
    EXPECT_EQ(breaker.stats().fallback_products, 4u);
    EXPECT_EQ(breaker.state(), serve::BreakerState::Open)
        << "probe_after not reached yet";
    breaker.mul_batch(pairs); // 8 fallback products now
    EXPECT_EQ(breaker.state(), serve::BreakerState::HalfOpen);

    // Failed probe: straight back to Open.
    const sim::BatchResult probe1 = breaker.mul_batch(pairs);
    EXPECT_EQ(probe1.faulty, 4u) << "the probe hit the sick device";
    EXPECT_EQ(breaker.state(), serve::BreakerState::Open);
    EXPECT_EQ(breaker.stats().probes, 1u);
    EXPECT_EQ(breaker.stats().opens, 2u);

    // Quarantine again, then heal: the next probe closes the breaker.
    breaker.mul_batch(pairs);
    breaker.mul_batch(pairs);
    EXPECT_EQ(breaker.state(), serve::BreakerState::HalfOpen);
    device->heal();
    const sim::BatchResult probe2 = breaker.mul_batch(pairs);
    EXPECT_EQ(probe2.faulty, 0u);
    EXPECT_EQ(breaker.state(), serve::BreakerState::Closed);
    EXPECT_EQ(breaker.stats().closes, 1u);
    EXPECT_EQ(breaker.stats().probes, 2u);

    // Healthy traffic flows to the device again.
    const sim::BatchResult healthy = breaker.mul_batch(pairs);
    EXPECT_EQ(healthy.faulty, 0u);
    EXPECT_EQ(breaker.state(), serve::BreakerState::Closed);
}

TEST(Breaker, SingleProductPathGoldenChecksAndIsolates)
{
    // mul() is golden-checked: a wrong device answer is served exact
    // and counted as a failure event.
    class WrongMulDevice : public exec::Device
    {
      public:
        const char* name() const override { return "wrong-mul"; }
        exec::DeviceKind kind() const override
        {
            return exec::DeviceKind::Accelerator;
        }
        std::uint64_t base_cap_bits() const override { return 0; }
        exec::MulOutcome mul(const Natural& a,
                             const Natural& b) override
        {
            return exec::MulOutcome{a * b + Natural(1), 1};
        }
        sim::BatchResult
        mul_batch_wave(exec::WaveBuffer&, const std::vector<std::size_t>&,
                       const std::vector<std::uint64_t>&,
                       unsigned) override
        {
            return {};
        }
        exec::CostEstimate cost(std::uint64_t,
                                std::uint64_t) const override
        {
            return {};
        }
    };

    serve::BreakerPolicy policy;
    policy.open_threshold = 2;
    policy.probe_after = 3;
    serve::BreakerDevice breaker(std::make_unique<WrongMulDevice>(),
                                 policy);
    const Natural a(98765), b(43210);
    EXPECT_EQ(breaker.mul(a, b).product, a * b)
        << "golden check repairs the wrong answer";
    EXPECT_EQ(breaker.state(), serve::BreakerState::Closed);
    EXPECT_EQ(breaker.mul(a, b).product, a * b);
    EXPECT_EQ(breaker.state(), serve::BreakerState::Open);
    // Quarantined singles are exact and count toward the probe.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(breaker.mul(a, b).product, a * b);
    EXPECT_EQ(breaker.state(), serve::BreakerState::HalfOpen);
    EXPECT_EQ(breaker.stats().fallback_products, 5u);
}

TEST(Server, BreakerQuarantineKeepsTrafficExact)
{
    // A device that corrupts its first waves and then heals: the
    // server must deliver zero wrong results throughout — retries and
    // the breaker's CPU quarantine carry the traffic — and the breaker
    // must recover once the device does.
    auto inner = std::make_unique<FaultyBatchDevice>(/*sick=*/3);
    serve::BreakerPolicy policy;
    // Early waves are small (arrivals ~2 us apart, ~1 us per entry),
    // so keep the thresholds low enough that three sick batches
    // deterministically trip, probe, and recover the breaker.
    policy.open_threshold = 2;
    policy.probe_after = 8;
    auto breaker = std::make_unique<serve::BreakerDevice>(
        std::move(inner), policy);
    serve::BreakerDevice& breaker_ref = *breaker;

    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0xb4ea6e5);
    spec.requests = 300;
    spec.mean_interarrival_us = 2.0;
    spec.deadline_fraction = 0.0;
    const auto workload = serve::generate_workload(spec);

    serve::ServeConfig config;
    config.breaker = policy;
    serve::Server server(config, breaker_ref);
    const serve::ServeReport report = server.process(workload);
    expect_exact_completions(workload, report);
    EXPECT_TRUE(report.conserved()) << report.table();
    EXPECT_EQ(report.totals.failed, 0u);
    EXPECT_GT(report.totals.faulty_results, 0u)
        << "the sick phase must be observed";
    EXPECT_GT(report.totals.retries, 0u);

    const serve::BreakerStats stats = breaker_ref.stats();
    EXPECT_GE(stats.opens, 1u) << "the sick device must quarantine";
    EXPECT_GE(stats.probes, 1u);
    EXPECT_EQ(breaker_ref.state(), serve::BreakerState::Closed)
        << "the healed device must be readmitted";
    EXPECT_GE(stats.closes, 1u);
    EXPECT_GT(stats.fallback_products, 0u);
    EXPECT_GT(stats.inner_products, 0u);
}

// ---------------------------------------------------------------------
// Shard invariance and fault conservation
// ---------------------------------------------------------------------

namespace {

std::unique_ptr<serve::BreakerDevice>
breaker_over_shards(unsigned shards, const sim::SimConfig& config,
                    const serve::BreakerPolicy& policy)
{
    exec::ShardPolicy shard_policy;
    shard_policy.shards = shards;
    shard_policy.drain_fault_threshold = 0;
    return std::make_unique<serve::BreakerDevice>(
        std::make_unique<exec::ShardedScheduler>(config, shard_policy),
        policy);
}

} // namespace

TEST(Server, OutcomeInvariantAcrossShardCounts)
{
    // The full serve outcome — statuses, shed set, timeout set,
    // per-tenant counters — must be identical whether the device is a
    // 1-shard or 4-shard scheduler, with fault injection armed. This
    // is the serving extension of the exec plane's
    // resharding-determinism contract.
    sim::SimConfig sim_config = sim::default_config();
    sim_config.faults.seed = 0x5e4afa17ull;
    sim_config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.02;
    sim_config.faults.rate_at(camp::FaultSite::GatherCarry) = 0.01;

    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0x54a4d);
    spec.requests = 200;
    spec.mean_interarrival_us = 1.0; // overloaded: sheds happen
    const auto workload = serve::generate_workload(spec);

    serve::ServeConfig config;
    config.limits.max_queue_depth = 8;
    config.max_backlog_us = 24.0;
    config.wave_size = 4;
    serve::BreakerPolicy policy;
    policy.open_threshold = 6;
    policy.probe_after = 16;
    config.breaker = policy;

    auto device1 = breaker_over_shards(1, sim_config, policy);
    auto device4 = breaker_over_shards(4, sim_config, policy);
    const serve::ServeReport r1 =
        serve::Server(config, *device1).process(workload);
    const serve::ServeReport r4 =
        serve::Server(config, *device4).process(workload);

    expect_exact_completions(workload, r1);
    expect_exact_completions(workload, r4);
    EXPECT_GT(r1.shed_ids.size(), 0u)
        << "overload must shed for the invariance check to bite";
    EXPECT_EQ(r1.shed_ids, r4.shed_ids);
    EXPECT_EQ(r1.timeout_ids, r4.timeout_ids);
    EXPECT_EQ(statuses_of(r1), statuses_of(r4));
    EXPECT_EQ(r1.waves, r4.waves);
    ASSERT_EQ(r1.tenants.size(), r4.tenants.size());
    for (std::size_t i = 0; i < r1.tenants.size(); ++i) {
        const serve::TenantCounters& a = r1.tenants[i].counters;
        const serve::TenantCounters& b = r4.tenants[i].counters;
        EXPECT_EQ(r1.tenants[i].name, r4.tenants[i].name);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.shed_admission, b.shed_admission);
        EXPECT_EQ(a.shed_evicted, b.shed_evicted);
        EXPECT_EQ(a.timeouts, b.timeouts);
        EXPECT_EQ(a.retries, b.retries);
        EXPECT_EQ(a.fallbacks, b.fallbacks);
        EXPECT_EQ(r1.tenants[i].latencies_us,
                  r4.tenants[i].latencies_us)
            << "virtual latencies are shard-invariant too";
    }
    EXPECT_TRUE(r1.conserved());
    EXPECT_TRUE(r4.conserved());
}

TEST(Server, ConservationHoldsUnderRawDeviceFaults)
{
    // Soak-shaped: a raw (unchecked) SimDevice with armed faults hands
    // the server corrupted-but-flagged products; the retry policy and
    // CPU fallback must keep every delivered product exact while the
    // ledger identities stay balanced.
    sim::SimConfig sim_config = sim::default_config();
    sim_config.faults.seed = 0xfa117ull;
    sim_config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.05;
    sim_config.faults.rate_at(camp::FaultSite::GatherCarry) = 0.02;
    exec::SimDevice device(sim_config);

    serve::WorkloadSpec spec;
    spec.seed = fuzz_seed(0x50a4);
    spec.requests = 250;
    spec.min_bits = 512;
    spec.max_bits = 2048;
    spec.deadline_fraction = 0.1;
    spec.deadline_slack_us = 50;
    const auto workload = serve::generate_workload(spec);

    camp::mpapca::CostModel model{};
    camp::mpapca::Ledger ledger(model);
    serve::Server server(serve::ServeConfig{}, device, &ledger);
    const serve::ServeReport report = server.process(workload);
    expect_exact_completions(workload, report);
    EXPECT_TRUE(report.conserved()) << report.table();
    EXPECT_GT(report.totals.faulty_results, 0u)
        << "rates must corrupt something (CAMP_FUZZ_SEED="
        << spec.seed << ")";
    EXPECT_GT(report.totals.retries, 0u);

    // The shared ledger saw exactly the per-wave folds.
    std::uint64_t total_attempts = 0;
    for (const serve::Outcome& outcome : report.outcomes)
        total_attempts += outcome.attempts;
    const camp::mpapca::FaultStats folded =
        ledger.fault_stats_snapshot();
    EXPECT_EQ(folded.checks, total_attempts);
    EXPECT_EQ(folded.detected, report.totals.faulty_results);
    EXPECT_EQ(folded.retried, report.totals.retries);
    EXPECT_EQ(folded.fallbacks, report.totals.fallbacks);
    EXPECT_GT(folded.injected, 0u);
}

// ---------------------------------------------------------------------
// Thread-safe ledger folding
// ---------------------------------------------------------------------

TEST(LedgerFolding, ConcurrentFoldsLoseNothing)
{
    camp::mpapca::CostModel model{};
    camp::mpapca::Ledger ledger(model);
    constexpr int kThreads = 8;
    constexpr int kFolds = 2000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&ledger, t] {
            camp::mpapca::FaultStats delta;
            delta.injected = 1;
            delta.checks = 2;
            delta.detected = 3;
            delta.retried = 2;
            delta.fallbacks = 1;
            for (int i = 0; i < kFolds; ++i) {
                ledger.fold_fault_stats(delta);
                if (i % 64 == 0)
                    ledger.record_fault_diagnostic(
                        "thread " + std::to_string(t) + " fold " +
                        std::to_string(i));
                // Snapshots race with folders by design.
                (void)ledger.fault_stats_snapshot();
            }
        });
    for (std::thread& worker : workers)
        worker.join();

    const camp::mpapca::FaultStats total =
        ledger.fault_stats_snapshot();
    const std::uint64_t folds =
        static_cast<std::uint64_t>(kThreads) * kFolds;
    EXPECT_EQ(total.injected, folds);
    EXPECT_EQ(total.checks, 2 * folds);
    EXPECT_EQ(total.detected, 3 * folds);
    EXPECT_EQ(total.retried, 2 * folds);
    EXPECT_EQ(total.fallbacks, folds);
    EXPECT_EQ(ledger.fault_diagnostics().size(),
              camp::mpapca::Ledger::kMaxFaultDiagnostics)
        << "diagnostics stay capped under concurrency";
}

TEST(LedgerFolding, TwoServersShareOneLedger)
{
    sim::SimConfig sim_config = sim::default_config();
    sim_config.faults.seed = 0x2fa17ull;
    sim_config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.03;

    serve::WorkloadSpec spec_a;
    spec_a.seed = fuzz_seed(0xaaa1);
    spec_a.requests = 120;
    serve::WorkloadSpec spec_b = spec_a;
    spec_b.seed = fuzz_seed(0xbbb2);
    const auto workload_a = serve::generate_workload(spec_a);
    const auto workload_b = serve::generate_workload(spec_b);

    camp::mpapca::CostModel model{};
    camp::mpapca::Ledger ledger(model);
    serve::ServeReport report_a, report_b;
    {
        // Two servers, two devices, one shared fault ledger, folded
        // from two threads at once.
        exec::SimDevice device_a(sim_config);
        exec::SimDevice device_b(sim_config);
        serve::Server server_a(serve::ServeConfig{}, device_a,
                               &ledger);
        serve::Server server_b(serve::ServeConfig{}, device_b,
                               &ledger);
        std::thread thread_b([&] {
            report_b = server_b.process(workload_b);
        });
        report_a = server_a.process(workload_a);
        thread_b.join();
    }
    expect_exact_completions(workload_a, report_a);
    expect_exact_completions(workload_b, report_b);

    std::uint64_t attempts = 0;
    for (const serve::Outcome& outcome : report_a.outcomes)
        attempts += outcome.attempts;
    for (const serve::Outcome& outcome : report_b.outcomes)
        attempts += outcome.attempts;
    const camp::mpapca::FaultStats folded =
        ledger.fault_stats_snapshot();
    EXPECT_EQ(folded.checks, attempts)
        << "no fold lost between concurrent servers";
    EXPECT_EQ(folded.detected, report_a.totals.faulty_results +
                                   report_b.totals.faulty_results);
    EXPECT_EQ(folded.retried,
              report_a.totals.retries + report_b.totals.retries);
    EXPECT_EQ(folded.fallbacks, report_a.totals.fallbacks +
                                    report_b.totals.fallbacks);
}
