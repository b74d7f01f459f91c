/**
 * @file
 * Wall-clock async serving acceptance suite (DESIGN.md §15): the Clock
 * abstraction, the submit_async/Handle client edge, the engine's
 * ownership of live requests and of the waves it runs, hardened
 * CAMP_SERVE_* env parsing, and above all the virtual-as-oracle
 * differential property —
 * a wall-clock run with overlapping in-flight waves settles exactly
 * the admitted/shed/timeout outcome set the deterministic virtual
 * engine computes for the same workload and config, with bit-identical
 * products, at every CAMP_SHARDS x CAMP_SERVE_INFLIGHT combination the
 * acceptance matrix names ({1,4} x {1,4}).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
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
#include "mpn/natural.hpp"
#include "serve/breaker.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "support/clock.hpp"
#include "support/errors.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace exec = camp::exec;
namespace serve = camp::serve;
namespace sim = camp::sim;
namespace support = camp::support;
using camp::mpn::Natural;

namespace {

std::vector<serve::RequestStatus>
statuses_of(const serve::ServeReport& report)
{
    std::vector<serve::RequestStatus> out;
    out.reserve(report.outcomes.size());
    for (const serve::Outcome& outcome : report.outcomes)
        out.push_back(outcome.status);
    return out;
}

/** The differential identity: a wall run reproduces the virtual
 * oracle's full settled set — statuses, shed/timeout id sets, wave
 * count, attempts, and bit-identical products. */
void
expect_differential_match(const serve::ServeReport& oracle,
                          const serve::ServeReport& wall,
                          const std::vector<serve::Request>& workload)
{
    ASSERT_EQ(oracle.outcomes.size(), wall.outcomes.size());
    EXPECT_EQ(statuses_of(oracle), statuses_of(wall));
    EXPECT_EQ(oracle.shed_ids, wall.shed_ids);
    EXPECT_EQ(oracle.timeout_ids, wall.timeout_ids);
    EXPECT_EQ(oracle.waves, wall.waves);
    EXPECT_TRUE(oracle.conserved()) << oracle.table();
    EXPECT_TRUE(wall.conserved()) << wall.table();
    for (std::size_t i = 0; i < oracle.outcomes.size(); ++i) {
        const serve::Outcome& a = oracle.outcomes[i];
        const serve::Outcome& b = wall.outcomes[i];
        EXPECT_EQ(a.status, b.status) << "request " << i;
        EXPECT_EQ(a.attempts, b.attempts) << "request " << i;
        EXPECT_EQ(a.latency_us, b.latency_us)
            << "virtual latency is mode-invariant, request " << i;
        if (a.status == serve::RequestStatus::Completed) {
            EXPECT_EQ(a.product, b.product)
                << "bit-identical products, request " << i;
            EXPECT_EQ(a.product, workload[i].a * workload[i].b)
                << "and exact, request " << i;
        }
    }
    ASSERT_EQ(oracle.tenants.size(), wall.tenants.size());
    for (std::size_t t = 0; t < oracle.tenants.size(); ++t) {
        EXPECT_EQ(oracle.tenants[t].latencies_us,
                  wall.tenants[t].latencies_us)
            << oracle.tenants[t].name;
    }
}

serve::ServeConfig
differential_config(unsigned inflight, bool wall)
{
    serve::ServeConfig config;
    config.limits.max_queue_depth = 16;
    config.max_backlog_us = 32.0;
    config.wave_size = 8;
    config.max_inflight_waves = inflight;
    config.wall_clock = wall;
    return config;
}

std::vector<serve::Request>
differential_workload(std::uint64_t seed)
{
    serve::WorkloadSpec spec;
    spec.seed = seed;
    spec.requests = 160;
    spec.mean_interarrival_us = 1.5; // overloaded: decisions bite
    spec.max_bits = 1024;
    spec.deadline_fraction = 0.2;
    spec.deadline_slack_us = 60;
    return serve::generate_workload(spec);
}

/** The differential matrix's workload seed. */
constexpr std::uint64_t kMatrixSeed = 0xd1ff5e47e;

/** The serve-large shape at test size: 16k-64k-bit operands (tens of
 * modelled microseconds each on the cpu backend, large enough that
 * the products fork on the global pool), overloaded like
 * differential_workload. Pair with large_operand_backlog_us. */
std::vector<serve::Request>
large_operand_workload(std::uint64_t seed)
{
    serve::WorkloadSpec spec;
    spec.seed = seed;
    spec.requests = 96;
    spec.mean_interarrival_us = 20;
    spec.min_bits = 16384;
    spec.max_bits = 65536;
    spec.deadline_fraction = 0.2;
    spec.deadline_slack_us = 600;
    return serve::generate_workload(spec);
}

/** differential_config's backlog cap scaled to the large products. */
constexpr double large_operand_backlog_us = 1000.0;

} // namespace

// ---------------------------------------------------------------------
// Clock contract
// ---------------------------------------------------------------------

TEST(Clock, VirtualClockIsASteerableMonotoneLedger)
{
    support::VirtualClock clock;
    EXPECT_TRUE(clock.is_virtual());
    EXPECT_EQ(clock.now_us(), 0u);
    clock.advance_to_us(40);
    EXPECT_EQ(clock.now_us(), 40u);
    clock.advance_to_us(25); // never backwards
    EXPECT_EQ(clock.now_us(), 40u);
    EXPECT_EQ(clock.now(), support::Clock::duration(40));
}

TEST(Clock, WallClockIgnoresSteeringAndMovesForward)
{
    support::WallClock clock;
    EXPECT_FALSE(clock.is_virtual());
    const std::uint64_t before = clock.now_us();
    clock.advance_to_us(before + 1000000000ull); // steering is a no-op
    const std::uint64_t after = clock.now_us();
    EXPECT_GE(after, before);
    EXPECT_LT(after, before + 1000000000ull);
}

// ---------------------------------------------------------------------
// The virtual-as-oracle differential property
// ---------------------------------------------------------------------

TEST(ServeDifferential, WallRunSettlesTheVirtualOracleSet)
{
    // The acceptance matrix: sim shards {1,4} x inflight {1,4},
    // fault-free (timing-dependent breaker episodes need armed faults
    // AND overlap to diverge; fault-free, the decision ledger is the
    // whole story). The third device input is the serve-large shape:
    // 4 cpu shards admitting one wave at a time (below serve's
    // inflight 4) with products that fork on the global pool, so wave
    // workers, inline waves, scheduler wave slots and pool tasks all
    // nest — the combination a wave-on-the-pool design deadlocks on.
    struct DeviceInput
    {
        const char* label;
        unsigned shards;
        std::vector<std::string> backends;
        unsigned shard_inflight;
        std::vector<serve::Request> workload;
        double backlog_us; ///< 0 = differential_config's cap
    };
    const std::vector<serve::Request> small =
        differential_workload(fuzz_seed(kMatrixSeed));
    const DeviceInput inputs[] = {
        {"sim x1", 1, {}, 2, small, 0.0},
        {"sim x4", 4, {}, 2, small, 0.0},
        {"cpu x4, shard inflight 1", 4, {"cpu"}, 1,
         large_operand_workload(fuzz_seed(0x1a26e)),
         large_operand_backlog_us},
    };
    for (const DeviceInput& input : inputs) {
        for (const unsigned inflight : {1u, 4u}) {
            SCOPED_TRACE(std::string(input.label) +
                         " inflight=" + std::to_string(inflight));
            const std::vector<serve::Request>& workload =
                input.workload;
            exec::ShardPolicy shard_policy;
            shard_policy.shards = input.shards;
            shard_policy.backends = input.backends;
            shard_policy.max_inflight_waves = input.shard_inflight;
            shard_policy.drain_fault_threshold = 0;
            serve::ServeConfig oracle_config =
                differential_config(inflight, /*wall=*/false);
            if (input.backlog_us != 0.0)
                oracle_config.max_backlog_us = input.backlog_us;
            serve::ServeConfig wall_config = oracle_config;
            wall_config.wall_clock = true;

            exec::ShardedScheduler oracle_device(
                sim::default_config(), shard_policy);
            serve::Server oracle_server(oracle_config, oracle_device);
            const serve::ServeReport oracle =
                oracle_server.process(workload);

            exec::ShardedScheduler wall_device(sim::default_config(),
                                               shard_policy);
            serve::Server wall_server(wall_config, wall_device);
            const serve::ServeReport wall =
                wall_server.process(workload);

            expect_differential_match(oracle, wall, workload);
            // The oracle's clock IS the ledger: skew identically 0.
            for (const serve::Outcome& outcome : oracle.outcomes)
                EXPECT_EQ(outcome.skew_us, 0);
            EXPECT_EQ(oracle.totals.wall_late, 0u);
            EXPECT_EQ(oracle.wall_end_us, oracle.virtual_end_us);
        }
    }
}

TEST(ServeDifferential, ArmedFaultsMatchAtSerialInflight)
{
    // With faults armed the device-health observations stay
    // deterministic as long as waves execute serially (inflight=1):
    // wave composition, fault streams (position-seeded), retries, and
    // fallbacks are then identical between virtual and wall runs.
    sim::SimConfig sim_config = sim::default_config();
    sim_config.faults.seed = 0x5e47e1ull;
    sim_config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.02;
    sim_config.faults.rate_at(camp::FaultSite::GatherCarry) = 0.01;

    const std::vector<serve::Request> workload =
        differential_workload(fuzz_seed(0xfa0c7));

    exec::SimDevice oracle_device(sim_config);
    serve::Server oracle_server(differential_config(1, false),
                                oracle_device);
    const serve::ServeReport oracle = oracle_server.process(workload);

    exec::SimDevice wall_device(sim_config);
    serve::Server wall_server(differential_config(1, true),
                              wall_device);
    const serve::ServeReport wall = wall_server.process(workload);

    EXPECT_GT(oracle.totals.faulty_results, 0u)
        << "faults must fire for this differential to bite";
    expect_differential_match(oracle, wall, workload);
    EXPECT_EQ(oracle.totals.faulty_results, wall.totals.faulty_results);
    EXPECT_EQ(oracle.totals.retries, wall.totals.retries);
    EXPECT_EQ(oracle.totals.fallbacks, wall.totals.fallbacks);
}

TEST(ServeDifferential, LedgerFoldIsExactInWallMode)
{
    sim::SimConfig sim_config = sim::default_config();
    sim_config.faults.seed = 0x1ed6e4ull;
    sim_config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.02;
    exec::SimDevice device(sim_config);

    camp::mpapca::CostModel model{};
    camp::mpapca::Ledger ledger(model);
    serve::Server server(differential_config(4, true), device,
                         &ledger);
    const serve::ServeReport report =
        server.process(differential_workload(fuzz_seed(0x1ed6)));
    EXPECT_TRUE(report.conserved()) << report.table();

    std::uint64_t attempts = 0;
    for (const serve::Outcome& outcome : report.outcomes)
        attempts += outcome.attempts;
    const camp::mpapca::FaultStats folded =
        ledger.fault_stats_snapshot();
    EXPECT_EQ(folded.checks, attempts);
    EXPECT_EQ(folded.detected, report.totals.faulty_results);
    EXPECT_EQ(folded.retried, report.totals.retries);
    EXPECT_EQ(folded.fallbacks, report.totals.fallbacks);
}

TEST(ServeDifferential, HeldHandlesReadTheVirtualOracleProducts)
{
    // The matrix's sim x4 input, but the wall run goes through
    // submit_async with every handle held: each handle's own outcome
    // copy, product included, must equal the virtual oracle's report.
    const std::uint64_t seed = fuzz_seed(kMatrixSeed);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    const std::vector<serve::Request> workload =
        differential_workload(seed);
    exec::ShardPolicy shard_policy;
    shard_policy.shards = 4;
    shard_policy.drain_fault_threshold = 0;

    exec::ShardedScheduler oracle_device(sim::default_config(),
                                         shard_policy);
    const serve::ServeReport oracle =
        serve::Server(differential_config(4, false), oracle_device)
            .process(workload);

    exec::ShardedScheduler wall_device(sim::default_config(),
                                       shard_policy);
    serve::Server wall_server(differential_config(4, true), wall_device);
    std::vector<serve::Server::Handle> handles;
    handles.reserve(workload.size());
    for (const serve::Request& request : workload)
        handles.push_back(wall_server.submit_async(request));
    const serve::ServeReport wall = wall_server.finish();

    expect_differential_match(oracle, wall, workload);
    for (std::size_t i = 0; i < workload.size(); ++i) {
        const serve::Outcome& held = handles[i].outcome();
        const serve::Outcome& want = oracle.outcomes[i];
        EXPECT_EQ(held.id, want.id) << "request " << i;
        EXPECT_EQ(held.status, want.status) << "request " << i;
        EXPECT_EQ(held.error, want.error) << "request " << i;
        EXPECT_EQ(held.attempts, want.attempts) << "request " << i;
        EXPECT_EQ(held.latency_us, want.latency_us) << "request " << i;
        EXPECT_EQ(held.product, want.product) << "request " << i;
    }
}

// ---------------------------------------------------------------------
// The async client edge
// ---------------------------------------------------------------------

TEST(ServeAsync, HandlesSettleWithCallbacksExactlyOnce)
{
    const std::vector<serve::Request> workload =
        differential_workload(fuzz_seed(0xa51c));
    exec::SimDevice device;
    serve::Server server(differential_config(2, false), device);

    std::vector<serve::Server::Handle> handles;
    std::vector<std::atomic<int>> fired(workload.size());
    for (auto& f : fired)
        f.store(0);
    handles.reserve(workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
        serve::Server::Handle handle =
            server.submit_async(workload[i]);
        ASSERT_TRUE(handle.valid());
        handle.on_settle([&fired, i](const serve::Outcome& outcome) {
            fired[i].fetch_add(1);
            EXPECT_EQ(outcome.id, i);
        });
        handles.push_back(std::move(handle));
    }
    const serve::ServeReport report = server.finish();
    EXPECT_TRUE(report.conserved()) << report.table();
    ASSERT_EQ(report.outcomes.size(), workload.size());

    for (std::size_t i = 0; i < handles.size(); ++i) {
        EXPECT_TRUE(handles[i].settled()) << i;
        EXPECT_EQ(fired[i].load(), 1) << "exactly-once callback " << i;
        const serve::Outcome& outcome = handles[i].outcome();
        EXPECT_EQ(outcome.status, report.outcomes[i].status) << i;
        EXPECT_EQ(outcome.attempts, report.outcomes[i].attempts);
        if (outcome.status == serve::RequestStatus::Completed)
            EXPECT_EQ(outcome.product,
                      workload[i].a * workload[i].b)
                << "the handle retains the exact product, " << i;
        // Registering after settlement fires immediately.
        int late = 0;
        handles[i].on_settle(
            [&late](const serve::Outcome&) { ++late; });
        EXPECT_EQ(late, 1);
    }
}

TEST(ServeAsync, AsyncSessionMatchesBatchProcess)
{
    const std::vector<serve::Request> workload =
        differential_workload(fuzz_seed(0xbac4));
    exec::SimDevice device_a;
    serve::Server batch(differential_config(1, false), device_a);
    const serve::ServeReport batch_report = batch.process(workload);

    exec::SimDevice device_b;
    serve::Server incremental(differential_config(1, false), device_b);
    for (const serve::Request& request : workload)
        incremental.submit_async(request);
    const serve::ServeReport async_report = incremental.finish();

    EXPECT_EQ(statuses_of(batch_report), statuses_of(async_report));
    EXPECT_EQ(batch_report.shed_ids, async_report.shed_ids);
    EXPECT_EQ(batch_report.timeout_ids, async_report.timeout_ids);
    EXPECT_EQ(batch_report.waves, async_report.waves);
    EXPECT_EQ(batch_report.virtual_end_us,
              async_report.virtual_end_us);
}

TEST(ServeAsync, WaitBlocksUntilAnotherThreadFinishes)
{
    std::vector<serve::Request> workload =
        differential_workload(fuzz_seed(0x3a17));
    exec::SimDevice device;
    serve::Server server(differential_config(2, true), device);
    serve::Server::Handle last;
    for (const serve::Request& request : workload)
        last = server.submit_async(request);
    std::atomic<bool> settled_seen{false};
    std::thread waiter([&last, &settled_seen] {
        last.wait();
        settled_seen.store(true);
    });
    const serve::ServeReport report = server.finish();
    waiter.join();
    EXPECT_TRUE(settled_seen.load());
    EXPECT_TRUE(last.settled());
    EXPECT_TRUE(report.conserved());
}

TEST(ServeAsync, JoinedWavesRunInlineOnlyOverlappingWavesGetAWorker)
{
    // The wall-mode execution rule: a wave whose modelled completion
    // lies within the pump that dispatches it is joined before that
    // pump returns, so it runs inline; only a wave that outlives the
    // pump gets a worker thread (counted in serve.waves.async).
    support::metrics::Counter& async_waves =
        support::metrics::counter("serve.waves.async");

    {
        SCOPED_TRACE("(a) arrivals spaced far beyond each wave's cost");
        serve::WorkloadSpec spec;
        spec.seed = fuzz_seed(0x1a11e);
        spec.requests = 200;
        spec.mean_interarrival_us = 1000;
        spec.burst_fraction = 0;
        spec.max_bits = 1024;
        const std::vector<serve::Request> workload =
            serve::generate_workload(spec);
        const std::uint64_t before = async_waves.value();
        exec::CpuDevice oracle_device;
        const serve::ServeReport oracle =
            serve::Server(differential_config(4, false), oracle_device)
                .process(workload);
        exec::CpuDevice wall_device;
        const serve::ServeReport wall =
            serve::Server(differential_config(4, true), wall_device)
                .process(workload);
        EXPECT_EQ(async_waves.value() - before, 0u)
            << "every wave completes before the next arrival";
        EXPECT_GT(wall.waves, 0u);
        expect_differential_match(oracle, wall, workload);
    }
    {
        SCOPED_TRACE("(b) the differential matrix's overloaded mix");
        exec::ShardPolicy policy;
        policy.shards = 4;
        policy.drain_fault_threshold = 0;
        exec::ShardedScheduler device(sim::default_config(), policy);
        const std::uint64_t before = async_waves.value();
        const serve::ServeReport report =
            serve::Server(differential_config(4, true), device)
                .process(differential_workload(fuzz_seed(kMatrixSeed)));
        const std::uint64_t delta = async_waves.value() - before;
        EXPECT_GT(delta, 0u) << "some waves outlive their pump";
        EXPECT_LT(delta, report.waves) << "the rest run inline";
        EXPECT_TRUE(report.conserved()) << report.table();
    }
}

TEST(ServeAsync, SessionDisciplineIsEnforced)
{
    exec::SimDevice device;
    serve::Server server(differential_config(1, false), device);
    serve::Request first;
    first.id = 0;
    first.tenant = "alpha";
    first.arrival_us = 100;
    first.a = Natural(3);
    first.b = Natural(5);
    server.submit_async(first);

    // The ledger cannot run backwards.
    serve::Request earlier = first;
    earlier.id = 1;
    earlier.arrival_us = 50;
    EXPECT_THROW(server.submit_async(earlier), camp::InvalidArgument);

    // process() refuses to trample an open session.
    EXPECT_THROW(server.process({}), camp::InvalidArgument);
    // finish() closes it; a second finish has nothing to close.
    EXPECT_TRUE(server.finish().conserved());
    EXPECT_THROW(server.finish(), camp::InvalidArgument);
}

TEST(ServeAsync, LiveRequestsStayBoundedWithHandlesDropped)
{
    // camp_bench's serve-small shape at 100k requests (wall mode, four
    // waves in flight, a CpuDevice, every handle dropped at once and
    // only its callback kept), but with default tenant limits. The
    // engine keeps a request only while it is live, so the gauge is
    // bounded by what admission and the wave pipeline can hold.
    const std::uint64_t seed = fuzz_seed(0x11fe5);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    serve::WorkloadSpec spec;
    spec.seed = seed;
    spec.requests = 100000;
    spec.min_bits = 64;
    spec.max_bits = 4096;
    spec.square_fraction = 0.2;
    spec.repeat_fraction = 0.3;
    spec.deadline_fraction = 0.0;
    const std::vector<serve::Request> workload =
        serve::generate_workload(spec);

    serve::ServeConfig config;
    config.wall_clock = true;
    config.max_inflight_waves = 4;
    config.max_backlog_us = 1e12;
    const std::int64_t bound = static_cast<std::int64_t>(
        serve::default_tenants().size() * config.limits.max_queue_depth +
        config.max_inflight_waves * config.wave_size);

    support::metrics::Gauge& live =
        support::metrics::gauge("serve.live_requests");
    ASSERT_EQ(live.value(), 0);
    std::int64_t peak = 0;
    std::size_t over_bound = 0;
    const auto observe = [&] {
        const std::int64_t now = live.value();
        peak = std::max(peak, now);
        if (now > bound)
            ++over_bound;
    };
    std::vector<unsigned> fired(workload.size(), 0);
    exec::CpuDevice device;
    serve::Server server(config, device);
    for (std::size_t i = 0; i < workload.size(); ++i) {
        server.submit_async(workload[i])
            .on_settle([&fired, &observe, i](const serve::Outcome&) {
                ++fired[i];
                observe();
            });
        observe();
    }
    const serve::ServeReport report = server.finish();
    EXPECT_EQ(live.value(), 0) << "every request settled";
    EXPECT_EQ(over_bound, 0u) << "peak " << peak << ", bound " << bound;
    EXPECT_GT(peak, 0);

    EXPECT_TRUE(report.conserved()) << report.table();
    ASSERT_EQ(report.outcomes.size(), workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
        ASSERT_EQ(fired[i], 1u) << "exactly-once callback " << i;
        const serve::Outcome& outcome = report.outcomes[i];
        if (outcome.status == serve::RequestStatus::Completed)
            ASSERT_EQ(outcome.product, workload[i].a * workload[i].b)
                << "request " << i;
    }
}

TEST(ServeAsync, HeldHandleOutlivesServer)
{
    const std::uint64_t seed = fuzz_seed(0x0d1e5);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    std::vector<serve::Request> workload = differential_workload(seed);
    // One more request, refused by admission inside submit_async: its
    // deadline is its arrival, which no product can meet.
    serve::Request refused = workload.back();
    refused.id = workload.size();
    refused.deadline_us = refused.arrival_us;
    workload.push_back(refused);

    std::vector<serve::Server::Handle> handles;
    handles.reserve(workload.size());
    serve::ServeReport report;
    {
        exec::SimDevice device;
        auto server = std::make_unique<serve::Server>(
            differential_config(4, true), device);
        for (const serve::Request& request : workload)
            handles.push_back(server->submit_async(request));
        ASSERT_TRUE(handles.back().settled())
            << "admission settled it inside submit_async";
        report = server->finish();
        server.reset();
    }
    // Server and device are gone; each held handle reads its own copy.
    EXPECT_TRUE(report.conserved()) << report.table();
    ASSERT_EQ(report.outcomes.size(), workload.size());
    std::size_t completed = 0;
    for (std::size_t i = 0; i < workload.size(); ++i) {
        ASSERT_TRUE(handles[i].settled()) << i;
        const serve::Outcome& outcome = handles[i].outcome();
        EXPECT_EQ(outcome.id, workload[i].id) << i;
        EXPECT_EQ(outcome.status, report.outcomes[i].status) << i;
        EXPECT_EQ(outcome.attempts, report.outcomes[i].attempts) << i;
        if (outcome.status == serve::RequestStatus::Completed) {
            ++completed;
            EXPECT_EQ(outcome.product, workload[i].a * workload[i].b)
                << "request " << i;
        }
    }
    EXPECT_GT(completed, 0u);
    const serve::Outcome& last = handles.back().outcome();
    EXPECT_EQ(last.status, serve::RequestStatus::RejectedDeadline);
    EXPECT_EQ(last.error, camp::ErrorCode::DeadlineExceeded);
}

namespace {

/** Device whose first @p sick waves throw HardwareFault and whose
 * waves holding @p marker as an operand throw InvalidArgument; exact
 * otherwise. It records the operand pairs each InvalidArgument covered
 * and counts throws raised off the thread that built it. Wall-mode
 * workers call it concurrently, so its state sits under a mutex. */
class ThrowingDevice : public exec::Device
{
  public:
    ThrowingDevice(unsigned sick, Natural marker)
        : sick_(sick), marker_(std::move(marker)),
          owner_(std::this_thread::get_id())
    {
    }

    const char* name() const override { return "throwing"; }
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
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const bool off_thread =
                std::this_thread::get_id() != owner_;
            bool marked = false;
            for (const std::size_t item : items)
                marked = marked || wave.operand_a(item).to_natural() ==
                                       marker_;
            if (marked) {
                for (const std::size_t item : items)
                    invalid_pairs_.push_back(wave.operand_pair(item));
                invalid_off_thread_ += off_thread;
                throw camp::InvalidArgument("marked operand");
            }
            if (sick_ > 0) {
                --sick_;
                hardware_off_thread_ += off_thread;
                throw camp::HardwareFault("sick wave");
            }
        }
        sim::BatchResult result;
        for (const std::size_t item : items) {
            const auto [a, b] = wave.operand_pair(item);
            wave.set_result(item, a * b);
        }
        result.per_product.resize(items.size());
        return result;
    }

    /** 4 modelled microseconds per product: arrivals 2 us apart keep
     * the pipeline full, so waves outlive their pump. */
    exec::CostEstimate cost(std::uint64_t, std::uint64_t) const override
    {
        return exec::CostEstimate{0.0, 4e-6, 0.0};
    }

    bool
    in_invalid_wave(const Natural& a, const Natural& b) const
    {
        for (const auto& pair : invalid_pairs_)
            if (pair.first == a && pair.second == b)
                return true;
        return false;
    }

    unsigned hardware_off_thread() const { return hardware_off_thread_; }
    unsigned invalid_off_thread() const { return invalid_off_thread_; }

  private:
    std::mutex mutex_;
    unsigned sick_;
    Natural marker_;
    std::thread::id owner_;
    std::vector<std::pair<Natural, Natural>> invalid_pairs_;
    unsigned hardware_off_thread_ = 0;
    unsigned invalid_off_thread_ = 0;
};

} // namespace

TEST(ServeAsync, AsyncWaveThrowIsTypedPerProduct)
{
    const std::uint64_t seed = fuzz_seed(0x7470e);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    serve::WorkloadSpec spec;
    spec.seed = seed;
    spec.requests = 240;
    spec.mean_interarrival_us = 2.0;
    spec.max_bits = 1024;
    spec.repeat_fraction = 0.0;
    spec.deadline_fraction = 0.0;
    std::vector<serve::Request> workload = serve::generate_workload(spec);
    const Natural marker(0xbad);
    for (std::size_t i = 0; i < workload.size(); i += 20)
        workload[i].a = marker;

    serve::ServeConfig config;
    config.wall_clock = true;
    config.max_inflight_waves = 4;
    config.wave_size = 8;
    config.limits.max_queue_depth = workload.size();
    config.max_backlog_us = 1e9;

    support::metrics::Counter& async_waves =
        support::metrics::counter("serve.waves.async");
    const std::uint64_t async_before = async_waves.value();
    ThrowingDevice device(/*sick=*/6, marker);
    camp::mpapca::CostModel model{};
    camp::mpapca::Ledger ledger(model);
    serve::ServeReport report;
    {
        serve::Server server(config, device, &ledger);
        for (const serve::Request& request : workload)
            server.submit_async(request);
        report = server.finish();
    }
    EXPECT_GT(async_waves.value() - async_before, 0u);
    EXPECT_GT(device.hardware_off_thread(), 0u)
        << "a HardwareFault crossed a worker thread";
    EXPECT_GT(device.invalid_off_thread(), 0u)
        << "an InvalidArgument crossed a worker thread";
    EXPECT_TRUE(report.conserved()) << report.table();
    EXPECT_GT(report.totals.retries + report.totals.fallbacks, 0u)
        << "the HardwareFault waves were retried or fell back";

    std::uint64_t attempts = 0;
    for (std::size_t i = 0; i < workload.size(); ++i) {
        const serve::Outcome& outcome = report.outcomes[i];
        attempts += outcome.attempts;
        const bool invalid =
            device.in_invalid_wave(workload[i].a, workload[i].b);
        if (workload[i].a == marker)
            EXPECT_TRUE(invalid) << "request " << i;
        if (invalid) {
            // Every product of an InvalidArgument wave carries it.
            EXPECT_EQ(outcome.status, serve::RequestStatus::Failed)
                << "request " << i;
            EXPECT_EQ(outcome.error, camp::ErrorCode::InvalidArgument)
                << "request " << i;
        } else {
            EXPECT_EQ(outcome.status, serve::RequestStatus::Completed)
                << "request " << i;
            EXPECT_EQ(outcome.product, workload[i].a * workload[i].b)
                << "request " << i;
        }
    }
    const camp::mpapca::FaultStats folded =
        ledger.fault_stats_snapshot();
    EXPECT_EQ(folded.checks, attempts);
    EXPECT_EQ(folded.detected, report.totals.faulty_results);
    EXPECT_EQ(folded.retried, report.totals.retries);
    EXPECT_EQ(folded.fallbacks, report.totals.fallbacks);
}

// ---------------------------------------------------------------------
// Breaker on the serving clock
// ---------------------------------------------------------------------

namespace {

/** Device whose batch path throws HardwareFault for the first
 * @p sick batches, exact afterwards. */
class SickThenHealedDevice : public exec::Device
{
  public:
    explicit SickThenHealedDevice(unsigned sick) : sick_(sick) {}

    const char* name() const override { return "sick-then-healed"; }
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
        if (sick_ > 0) {
            --sick_;
            throw camp::HardwareFault("sick batch");
        }
        sim::BatchResult result;
        for (const std::size_t item : items) {
            const auto [a, b] = wave.operand_pair(item);
            wave.set_result(item, a * b);
        }
        result.per_product.resize(items.size());
        result.parallelism = 1;
        return result;
    }

    exec::CostEstimate cost(std::uint64_t, std::uint64_t) const override
    {
        return exec::CostEstimate{1.0, 1e-6, 0.0};
    }

  private:
    unsigned sick_;
};

} // namespace

TEST(BreakerClock, OpenResidencyAccumulatesOnTheSharedClock)
{
    serve::BreakerPolicy policy;
    policy.open_threshold = 2;
    policy.probe_after = 1;
    support::VirtualClock clock;
    serve::BreakerDevice breaker(
        std::make_unique<SickThenHealedDevice>(2), policy, &clock);
    const std::vector<std::pair<Natural, Natural>> pairs = {
        {Natural(7), Natural(9)}};

    clock.advance_to_us(10);
    EXPECT_THROW(breaker.mul_batch(pairs), camp::HardwareFault);
    EXPECT_THROW(breaker.mul_batch(pairs), camp::HardwareFault);
    EXPECT_EQ(breaker.state(), serve::BreakerState::Open);
    EXPECT_EQ(breaker.stats().last_transition_us, 10u);

    clock.advance_to_us(50);
    // Quarantined batch: exact fallback, then HalfOpen (probe_after=1)
    // — 40 virtual us of Open residency on the shared clock.
    const sim::BatchResult quarantined = breaker.mul_batch(pairs);
    EXPECT_EQ(quarantined.products[0], Natural(63));
    EXPECT_EQ(breaker.state(), serve::BreakerState::HalfOpen);
    EXPECT_EQ(breaker.stats().open_total.count(), 40);
    EXPECT_EQ(breaker.stats().last_transition_us, 50u);

    clock.advance_to_us(60);
    const sim::BatchResult probe = breaker.mul_batch(pairs); // healed
    EXPECT_EQ(probe.products[0], Natural(63));
    EXPECT_EQ(breaker.state(), serve::BreakerState::Closed);
    EXPECT_EQ(breaker.stats().open_total.count(), 40)
        << "HalfOpen time is not Open residency";
    EXPECT_EQ(breaker.stats().last_transition_us, 60u);
}

// ---------------------------------------------------------------------
// Hardened CAMP_SERVE_* environment parsing
// ---------------------------------------------------------------------

namespace {

void
expect_env_throws_naming(const char* name, const char* value)
{
    ::setenv(name, value, 1);
    try {
        serve::serve_config_from_env();
        ADD_FAILURE() << name << "='" << value
                      << "' must throw InvalidArgument";
    } catch (const camp::InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(name),
                  std::string::npos)
            << "the error must name the variable: " << e.what();
    }
    ::unsetenv(name);
}

} // namespace

TEST(ServeEnv, JunkOverflowAndEmptyValuesThrowNamingTheVariable)
{
    const char* numeric[] = {
        "CAMP_SERVE_DEPTH",       "CAMP_SERVE_RETRY_BUDGET",
        "CAMP_SERVE_BACKLOG_US",  "CAMP_SERVE_WAVE",
        "CAMP_SERVE_INFLIGHT",    "CAMP_SERVE_DEADLINE_US",
        "CAMP_SERVE_BACKOFF_US",  "CAMP_SERVE_ATTEMPTS",
        "CAMP_SERVE_BREAKER_THRESHOLD", "CAMP_SERVE_BREAKER_PROBE"};
    for (const char* name : numeric) {
        SCOPED_TRACE(name);
        expect_env_throws_naming(name, "banana");
        expect_env_throws_naming(name, "12abc");
        expect_env_throws_naming(
            name, "123456789012345678901234567890"); // ERANGE
        expect_env_throws_naming(name, ""); // set-but-empty is a typo
        expect_env_throws_naming(name, "-4");
    }
    // The unsigned knobs reject 2^32 and 2^32 + 1 instead of wrapping.
    for (const char* name : {"CAMP_SERVE_INFLIGHT", "CAMP_SERVE_ATTEMPTS",
                             "CAMP_SERVE_BREAKER_THRESHOLD"}) {
        SCOPED_TRACE(name);
        expect_env_throws_naming(name, "4294967296");
        expect_env_throws_naming(name, "4294967297");
    }
    // Zero is junk for the positive knobs, fine for the deadline.
    expect_env_throws_naming("CAMP_SERVE_WAVE", "0");
    ::setenv("CAMP_SERVE_DEADLINE_US", "0", 1);
    EXPECT_EQ(serve::serve_config_from_env().default_deadline.count(),
              0);
    ::unsetenv("CAMP_SERVE_DEADLINE_US");
    // The wall-clock flag accepts 1/true/on and 0/false/off only.
    expect_env_throws_naming("CAMP_SERVE_WALL", "banana");
    expect_env_throws_naming("CAMP_SERVE_WALL", "");
    ::setenv("CAMP_SERVE_WALL", "true", 1);
    EXPECT_TRUE(serve::serve_config_from_env().wall_clock);
    ::setenv("CAMP_SERVE_WALL", "off", 1);
    EXPECT_FALSE(serve::serve_config_from_env().wall_clock);
    ::unsetenv("CAMP_SERVE_WALL");
}

TEST(ServeEnv, WorkloadRequestCountIsHardenedToo)
{
    for (const char* bad :
         {"junk", "", "0", "-3", "123456789012345678901234567890"}) {
        ::setenv("CAMP_SERVE_REQUESTS", bad, 1);
        try {
            serve::workload_spec_from_env();
            ADD_FAILURE() << "CAMP_SERVE_REQUESTS='" << bad
                          << "' must throw";
        } catch (const camp::InvalidArgument& e) {
            EXPECT_NE(
                std::string(e.what()).find("CAMP_SERVE_REQUESTS"),
                std::string::npos)
                << e.what();
        }
    }
    ::setenv("CAMP_SERVE_REQUESTS", "17", 1);
    EXPECT_EQ(serve::workload_spec_from_env().requests, 17u);
    ::unsetenv("CAMP_SERVE_REQUESTS");
}

TEST(ServeEnv, WorkloadSeedIsHardenedToo)
{
    // Save/restore so a CI-level CAMP_FUZZ_SEED replay is unaffected.
    const char* saved = std::getenv("CAMP_FUZZ_SEED");
    const std::string saved_value = saved != nullptr ? saved : "";
    for (const char* bad : {"junk", "", "12k", "-1", "0x",
                            "18446744073709551616"}) {
        ::setenv("CAMP_FUZZ_SEED", bad, 1);
        try {
            serve::workload_spec_from_env();
            ADD_FAILURE() << "CAMP_FUZZ_SEED='" << bad
                          << "' must throw";
        } catch (const camp::InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find("CAMP_FUZZ_SEED"),
                      std::string::npos)
                << e.what();
        }
    }
    ::setenv("CAMP_FUZZ_SEED", "012", 1);
    EXPECT_EQ(serve::workload_spec_from_env().seed, 12u)
        << "decimal, not octal";
    ::setenv("CAMP_FUZZ_SEED", "0x1f", 1);
    EXPECT_EQ(serve::workload_spec_from_env().seed, 31u);
    if (saved != nullptr)
        ::setenv("CAMP_FUZZ_SEED", saved_value.c_str(), 1);
    else
        ::unsetenv("CAMP_FUZZ_SEED");
}
