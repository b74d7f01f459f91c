/**
 * @file
 * ShardedScheduler tests: the cross-shard differential suite (products
 * bit-identical across CAMP_SHARDS=1/2/8 and vs the host CPU, with
 * per-product fault streams invariant under resharding), the LPT
 * partitioner, the drain/redistribution failure protocol, the
 * registry/environment surface, queue integration, backpressure, and
 * Runtime fault-stats folding.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "exec/cpu_device.hpp"
#include "exec/queue.hpp"
#include "exec/registry.hpp"
#include "exec/scheduler.hpp"
#include "exec/sim_device.hpp"
#include "exec/wave.hpp"
#include "fuzz_seed.hpp"
#include "mpapca/runtime.hpp"
#include "mpn/natural.hpp"
#include "support/errors.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace exec = camp::exec;
namespace sim = camp::sim;
namespace metrics = camp::support::metrics;
using camp::mpn::Natural;
using camp::mpapca::Runtime;

namespace {

/** Scheduler over @p shards sim instances (fault-free default
 * config), waves never draining. */
std::unique_ptr<exec::ShardedScheduler>
sim_sharded(unsigned shards,
            const sim::SimConfig& config = sim::default_config())
{
    exec::ShardPolicy policy;
    policy.shards = shards;
    policy.drain_fault_threshold = 0; // keep the shard set constant
    return std::make_unique<exec::ShardedScheduler>(config, policy);
}

/** One random batch mixing the differential-suite shapes: wide spread
 * of widths, the 35904-bit monolithic cap boundary, zero and one-limb
 * operands, and duplicated pairs. */
std::vector<std::pair<Natural, Natural>>
random_batch(camp::Rng& rng, std::uint64_t cap_bits)
{
    const std::size_t count = 1 + rng.below(6);
    std::vector<std::pair<Natural, Natural>> pairs;
    pairs.reserve(count + 1);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t shape = rng.below(100);
        std::uint64_t bits_a = 1 + rng.below(2048);
        std::uint64_t bits_b = 1 + rng.below(2048);
        if (shape < 2) {
            // The simulator's monolithic capability boundary.
            bits_a = cap_bits - rng.below(64);
            bits_b = cap_bits - rng.below(64);
        } else if (shape < 10) {
            bits_a = 1 + rng.below(64); // one-limb operand
        } else if (shape < 14) {
            pairs.emplace_back(Natural(), Natural(7)); // zero operand
            continue;
        }
        pairs.emplace_back(Natural::random_bits(rng, bits_a),
                           Natural::random_bits(rng, bits_b));
    }
    if (pairs.size() > 1 && rng.below(3) == 0)
        pairs.push_back(pairs.front()); // duplicated pair
    return pairs;
}

/** A device whose batch path always throws (its mul is exact), for
 * exercising the wave redistribution protocol. */
class ThrowingBatchDevice : public exec::Device
{
  public:
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
    mul_batch_wave(exec::WaveBuffer&, const std::vector<std::size_t>&,
                   const std::vector<std::uint64_t>&, unsigned) override
    {
        throw std::runtime_error("batch fabric offline");
    }

    exec::CostEstimate cost(std::uint64_t, std::uint64_t) const override
    {
        return {};
    }
};

/** A device whose single-product path always throws (its batch path is
 * exact), for exercising the mul() drain protocol. */
class ThrowingMulDevice : public exec::Device
{
  public:
    const char* name() const override { return "throwing-mul"; }
    exec::DeviceKind kind() const override
    {
        return exec::DeviceKind::Accelerator;
    }
    std::uint64_t base_cap_bits() const override { return 0; }

    exec::MulOutcome mul(const Natural&, const Natural&) override
    {
        throw camp::HardwareFault("mul datapath offline");
    }

    sim::BatchResult
    mul_batch_wave(exec::WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>&, unsigned) override
    {
        sim::BatchResult result;
        for (const std::size_t item : items) {
            const auto [a, b] = wave.operand_pair(item);
            wave.set_result(item, a * b);
            result.per_product.push_back({});
        }
        return result;
    }

    exec::CostEstimate cost(std::uint64_t, std::uint64_t) const override
    {
        return {};
    }
};

} // namespace

TEST(LptAssign, DeterministicBalancedPartition)
{
    // Identical weights on both shards: classic LPT lands a perfectly
    // balanced 8/8 split, deterministically.
    const std::vector<std::vector<double>> weights = {
        {5, 3, 3, 2, 2, 1},
        {5, 3, 3, 2, 2, 1},
    };
    const auto assign = exec::ShardedScheduler::lpt_assign(weights);
    ASSERT_EQ(assign.size(), 2u);
    EXPECT_EQ(assign[0], (std::vector<std::size_t>{0, 3, 5}));
    EXPECT_EQ(assign[1], (std::vector<std::size_t>{1, 2, 4}));
    EXPECT_EQ(assign, exec::ShardedScheduler::lpt_assign(weights))
        << "assignment must be deterministic";
}

TEST(LptAssign, CoversEveryItemOnceAndBeatsRoundRobin)
{
    camp::Rng rng(fuzz_seed(0x10f7));
    for (int round = 0; round < 50; ++round) {
        const std::size_t shards = 2 + rng.below(7);
        const std::size_t items = 1 + rng.below(40);
        std::vector<double> w(items);
        for (double& x : w)
            x = 1.0 + static_cast<double>(rng.below(1000));
        const std::vector<std::vector<double>> weights(shards, w);
        const auto assign = exec::ShardedScheduler::lpt_assign(weights);
        ASSERT_EQ(assign.size(), shards);

        std::vector<int> seen(items, 0);
        double makespan = 0;
        for (const auto& mine : assign) {
            double load = 0;
            EXPECT_TRUE(
                std::is_sorted(mine.begin(), mine.end()));
            for (const std::size_t item : mine) {
                ASSERT_LT(item, items);
                ++seen[item];
                load += w[item];
            }
            makespan = std::max(makespan, load);
        }
        for (std::size_t i = 0; i < items; ++i)
            EXPECT_EQ(seen[i], 1) << "item " << i;

        // Cost balancing is the point: LPT's makespan never exceeds a
        // round-robin split's.
        std::vector<double> rr(shards, 0.0);
        for (std::size_t i = 0; i < items; ++i)
            rr[i % shards] += w[i];
        const double rr_makespan =
            *std::max_element(rr.begin(), rr.end());
        EXPECT_LE(makespan, rr_makespan + 1e-9) << "round " << round;
    }
}

TEST(ShardedScheduler, DifferentialBitIdenticalAcrossShardCounts)
{
    // The acceptance differential: >= 1000 random batches, products
    // bit-identical across shard counts 1/2/8 and vs the host CPU.
    const std::uint64_t seed = fuzz_seed(0x5a7d);
    const std::uint64_t cap =
        sim::default_config().monolithic_cap_bits;
    exec::CpuDevice cpu;
    const auto s1 = sim_sharded(1);
    const auto s2 = sim_sharded(2);
    const auto s8 = sim_sharded(8);
    EXPECT_EQ(s1->base_cap_bits(), cap);
    camp::Rng rng(seed);
    for (int batch = 0; batch < 1000; ++batch) {
        const auto pairs = random_batch(rng, cap);
        const sim::BatchResult golden = cpu.mul_batch(pairs);
        const sim::BatchResult r1 = s1->mul_batch(pairs);
        const sim::BatchResult r2 = s2->mul_batch(pairs);
        const sim::BatchResult r8 = s8->mul_batch(pairs);
        ASSERT_EQ(r1.products.size(), pairs.size());
        ASSERT_EQ(r2.products.size(), pairs.size());
        ASSERT_EQ(r8.products.size(), pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            ASSERT_EQ(r1.products[i], golden.products[i])
                << "shards=1 batch=" << batch << " i=" << i
                << " CAMP_FUZZ_SEED=" << seed;
            ASSERT_EQ(r2.products[i], golden.products[i])
                << "shards=2 batch=" << batch << " i=" << i
                << " CAMP_FUZZ_SEED=" << seed;
            ASSERT_EQ(r8.products[i], golden.products[i])
                << "shards=8 batch=" << batch << " i=" << i
                << " CAMP_FUZZ_SEED=" << seed;
        }
    }
    EXPECT_EQ(s8->stats().waves, 1000u);
    EXPECT_EQ(s8->alive_count(), 8u) << "nothing drains fault-free";
}

TEST(ShardedScheduler, FaultStreamsInvariantUnderResharding)
{
    // Armed fault injection: every product's fault stream is seeded by
    // its wave-global index, so per-product injection accounting is
    // bit-identical at every shard count — and recovery keeps the
    // returned products exact everywhere.
    sim::SimConfig config = sim::default_config();
    config.faults.seed = 0xdeadfa17ull;
    config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.01;
    config.faults.rate_at(camp::FaultSite::GatherCarry) = 0.01;

    const auto s1 = sim_sharded(1, config);
    const auto s2 = sim_sharded(2, config);
    const auto s8 = sim_sharded(8, config);
    EXPECT_TRUE(s1->shard(0).policy().enabled)
        << "armed faults auto-enable per-shard checking";

    const std::uint64_t redistributed_metric_before =
        metrics::counter("exec.scheduler.redistributed").value();

    const std::uint64_t seed = fuzz_seed(0xfa175eedull);
    camp::Rng rng(seed);
    std::uint64_t total_faulty = 0;
    for (int batch = 0; batch < 40; ++batch) {
        std::vector<std::pair<Natural, Natural>> pairs;
        for (int i = 0; i < 16; ++i)
            pairs.emplace_back(
                Natural::random_bits(rng, 1 + rng.below(2500)),
                Natural::random_bits(rng, 1 + rng.below(2500)));
        const sim::BatchResult r1 = s1->mul_batch(pairs);
        const sim::BatchResult r2 = s2->mul_batch(pairs);
        const sim::BatchResult r8 = s8->mul_batch(pairs);
        ASSERT_EQ(r1.per_product.size(), pairs.size());
        EXPECT_EQ(r1.faulty, r2.faulty);
        EXPECT_EQ(r1.faulty, r8.faulty);
        total_faulty += r1.faulty;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            const Natural golden =
                pairs[i].first * pairs[i].second;
            ASSERT_EQ(r1.products[i], golden)
                << "batch=" << batch << " i=" << i
                << " CAMP_FUZZ_SEED=" << seed;
            ASSERT_EQ(r2.products[i], golden)
                << "batch=" << batch << " i=" << i;
            ASSERT_EQ(r8.products[i], golden)
                << "batch=" << batch << " i=" << i;
            // The resharding-determinism contract, element-wise.
            EXPECT_EQ(r1.per_product[i].injected,
                      r2.per_product[i].injected)
                << i;
            EXPECT_EQ(r1.per_product[i].injected,
                      r8.per_product[i].injected)
                << i;
            EXPECT_EQ(r1.per_product[i].faulty,
                      r2.per_product[i].faulty)
                << i;
            EXPECT_EQ(r1.per_product[i].faulty,
                      r8.per_product[i].faulty)
                << i;
        }
    }
    EXPECT_GT(total_faulty, 0u)
        << "rates must actually corrupt products for this test to "
           "mean anything";
    // drain_fault_threshold = 0: the shard set never shrank, so every
    // shard count executed its full configuration throughout.
    EXPECT_EQ(s2->alive_count(), 2u);
    EXPECT_EQ(s8->alive_count(), 8u);
    EXPECT_EQ(s1->stats().redistributed, total_faulty);
    EXPECT_EQ(s2->stats().redistributed, total_faulty);
    EXPECT_EQ(s8->stats().redistributed, total_faulty);
    // Drain-path accounting: the process-wide counter moved by exactly
    // the redistributions the three schedulers performed, and each
    // scheduler's per-shard stats sum to the faults injected into it.
    EXPECT_EQ(metrics::counter("exec.scheduler.redistributed").value() -
                  redistributed_metric_before,
              3 * total_faulty);
    for (const auto* scheduler : {s1.get(), s2.get(), s8.get()}) {
        std::uint64_t per_shard_sum = 0;
        for (std::size_t i = 0; i < scheduler->shard_count(); ++i)
            per_shard_sum += scheduler->shard_stats(i).redistributed;
        EXPECT_EQ(per_shard_sum, total_faulty)
            << "shards=" << scheduler->shard_count();
    }
}

TEST(ShardedScheduler, PersistentlyFaultyShardDrainsAndRedistributes)
{
    // Shard 0 faults on essentially every product; shard 1 is clean.
    // The wave must come back exact, the faulty share redistributed,
    // and shard 0 drained from the next wave on.
    sim::SimConfig faulty = sim::default_config();
    faulty.faults.seed = 7;
    faulty.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.2;
    faulty.faults.rate_at(camp::FaultSite::GatherCarry) = 0.1;

    std::vector<std::unique_ptr<exec::Device>> devices;
    devices.push_back(std::make_unique<exec::SimDevice>(faulty));
    devices.push_back(std::make_unique<exec::SimDevice>());
    exec::ShardPolicy policy;
    policy.check.enabled = true;
    policy.check.sample_rate = 1.0;
    policy.drain_fault_threshold = 1;
    exec::ShardedScheduler scheduler(std::move(devices), policy);

    const std::uint64_t redistributed_before =
        metrics::counter("exec.shard.0.redistributed").value();

    camp::Rng rng(fuzz_seed(0xd7a1full));
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 16; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 2048),
                           Natural::random_bits(rng, 2048));
    const sim::BatchResult wave1 = scheduler.mul_batch(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        ASSERT_EQ(wave1.products[i],
                  pairs[i].first * pairs[i].second)
            << i;
    EXPECT_GT(wave1.faulty, 0u);
    const exec::ShardStats shard0 = scheduler.shard_stats(0);
    EXPECT_GT(shard0.redistributed, 0u);
    EXPECT_TRUE(shard0.drained);
    EXPECT_FALSE(scheduler.shard_alive(0));
    EXPECT_TRUE(scheduler.shard_alive(1));
    EXPECT_EQ(scheduler.stats().drains, 1u);
    EXPECT_EQ(metrics::counter("exec.shard.0.redistributed").value() -
                  redistributed_before,
              shard0.redistributed)
        << "exec.shard.0.redistributed must track the shard stat";

    // The next wave runs entirely on the survivor — and is exact.
    const sim::BatchResult wave2 = scheduler.mul_batch(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        ASSERT_EQ(wave2.products[i],
                  pairs[i].first * pairs[i].second)
            << i;
    EXPECT_EQ(wave2.faulty, 0u);
    EXPECT_EQ(scheduler.shard_stats(0).waves, 1u);
    EXPECT_EQ(scheduler.shard_stats(1).waves, 2u);
}

TEST(ShardedScheduler, ThrowingShardWaveRedistributesToSurvivors)
{
    std::vector<std::unique_ptr<exec::Device>> devices;
    devices.push_back(std::make_unique<ThrowingBatchDevice>());
    devices.push_back(std::make_unique<exec::CpuDevice>());
    exec::ShardPolicy policy;
    exec::ShardedScheduler scheduler(std::move(devices), policy);

    camp::Rng rng(fuzz_seed(0x7777));
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 12; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 1024),
                           Natural::random_bits(rng, 1024));
    const sim::BatchResult wave = scheduler.mul_batch(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        ASSERT_EQ(wave.products[i],
                  pairs[i].first * pairs[i].second)
            << i;
    EXPECT_FALSE(scheduler.shard_alive(0)) << "thrower drained";
    EXPECT_GT(scheduler.shard_stats(0).redistributed, 0u);
    // Recovery runs on the surviving host shard, never the process
    // CPU-of-last-resort.
    EXPECT_EQ(scheduler.stats().cpu_fallbacks, 0u);
}

TEST(ShardedScheduler, MulThrowRedistributionIsAccounted)
{
    // The single-product drain path must account the moved product as
    // redistributed, in both the stats block and the metric counters —
    // it used to drain silently.
    std::vector<std::unique_ptr<exec::Device>> devices;
    devices.push_back(std::make_unique<ThrowingMulDevice>());
    devices.push_back(std::make_unique<exec::CpuDevice>());
    exec::ShardPolicy policy;
    exec::ShardedScheduler scheduler(std::move(devices), policy);

    const std::uint64_t scheduler_metric_before =
        metrics::counter("exec.scheduler.redistributed").value();
    const std::uint64_t shard_metric_before =
        metrics::counter("exec.shard.0.redistributed").value();

    const Natural a(123456789), b(987654321);
    EXPECT_EQ(scheduler.mul(a, b).product, a * b)
        << "the survivor serves the product exactly";
    EXPECT_FALSE(scheduler.shard_alive(0)) << "thrower drained";
    EXPECT_EQ(scheduler.shard_stats(0).redistributed, 1u);
    EXPECT_EQ(scheduler.stats().redistributed, 1u);
    EXPECT_EQ(metrics::counter("exec.scheduler.redistributed").value() -
                  scheduler_metric_before,
              1u);
    EXPECT_EQ(metrics::counter("exec.shard.0.redistributed").value() -
                  shard_metric_before,
              1u);
}

TEST(ShardedScheduler, MixedSimCpuShardsStayExact)
{
    exec::ShardPolicy policy;
    policy.shards = 2;
    policy.backends = {"sim", "cpu"};
    exec::ShardedScheduler scheduler(sim::default_config(), policy);
    EXPECT_EQ(scheduler.kind(), exec::DeviceKind::Accelerator);
    EXPECT_EQ(scheduler.base_cap_bits(),
              sim::default_config().monolithic_cap_bits)
        << "cap is the most conservative shard";

    camp::Rng rng(fuzz_seed(0x3137));
    for (int batch = 0; batch < 100; ++batch) {
        const auto pairs =
            random_batch(rng, scheduler.base_cap_bits());
        const sim::BatchResult result = scheduler.mul_batch(pairs);
        for (std::size_t i = 0; i < pairs.size(); ++i)
            ASSERT_EQ(result.products[i],
                      pairs[i].first * pairs[i].second)
                << "batch=" << batch << " i=" << i;
    }
    // Both shards saw work: the LPT partitioner balances by cost, and
    // 100 multi-product waves cannot all fit one shard.
    EXPECT_GT(scheduler.shard_stats(0).products, 0u);
    EXPECT_GT(scheduler.shard_stats(1).products, 0u);
}

TEST(ShardedScheduler, MulRoutesToShardsAndStaysExact)
{
    const auto scheduler = sim_sharded(2);
    camp::Rng rng(fuzz_seed(0xb00b1e5));
    for (int i = 0; i < 50; ++i) {
        const Natural a =
            Natural::random_bits(rng, 1 + rng.below(4096));
        const Natural b =
            Natural::random_bits(rng, 1 + rng.below(4096));
        EXPECT_EQ(scheduler->mul(a, b).product, a * b) << i;
    }
    EXPECT_EQ(scheduler->stats().products, 50u);
}

TEST(ShardedScheduler, OversizedOperandAndEdgeCases)
{
    const auto scheduler = sim_sharded(2);
    const std::uint64_t cap = scheduler->base_cap_bits();
    camp::Rng rng(42);
    const Natural big = Natural::random_bits(rng, cap + 1);
    const Natural small = Natural::random_bits(rng, 64);
    EXPECT_THROW(scheduler->mul(big, small), camp::InvalidArgument);
    EXPECT_THROW(scheduler->mul_batch({{big, small}}),
                 camp::InvalidArgument);

    const sim::BatchResult empty = scheduler->mul_batch({});
    EXPECT_TRUE(empty.products.empty());
    EXPECT_EQ(scheduler->stats().waves, 0u)
        << "an empty wave is not a wave";

    const sim::BatchResult zeros =
        scheduler->mul_batch({{Natural(), Natural()},
                              {Natural(), Natural(5)},
                              {Natural(3), Natural(4)}});
    ASSERT_EQ(zeros.products.size(), 3u);
    EXPECT_TRUE(zeros.products[0].is_zero());
    EXPECT_TRUE(zeros.products[1].is_zero());
    EXPECT_EQ(zeros.products[2], Natural(12));
}

TEST(ShardedScheduler, SubmitQueueCoalescesThroughScheduler)
{
    const auto scheduler = sim_sharded(4);
    exec::SubmitQueue queue(*scheduler, /*max_pending=*/16);
    camp::Rng rng(fuzz_seed(0x9e9e));
    std::vector<std::pair<Natural, Natural>> pairs;
    std::vector<exec::SubmitQueue::Future> futures;
    for (int i = 0; i < 50; ++i) {
        pairs.emplace_back(
            Natural::random_bits(rng, 1 + rng.below(2048)),
            Natural::random_bits(rng, 1 + rng.below(2048)));
        futures.push_back(
            queue.submit(pairs.back().first, pairs.back().second));
    }
    queue.wait_all();
    for (std::size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get(),
                  pairs[i].first * pairs[i].second)
            << i;
    const exec::QueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, 50u);
    EXPECT_GE(stats.largest_batch, 16u)
        << "watermark flushes coalesce into scheduler waves";
    EXPECT_GE(scheduler->stats().waves, stats.flushes);
}

TEST(ShardedScheduler, ConcurrentWavesRespectBackpressure)
{
    exec::ShardPolicy policy;
    policy.shards = 2;
    policy.max_inflight_waves = 1;
    policy.drain_fault_threshold = 0;
    exec::ShardedScheduler scheduler(sim::default_config(), policy);

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&scheduler, &failures, t] {
            camp::Rng rng(0xc0ffee + static_cast<unsigned>(t));
            std::vector<std::pair<Natural, Natural>> pairs;
            for (int i = 0; i < 20; ++i)
                pairs.emplace_back(
                    Natural::random_bits(rng, 1 + rng.below(1024)),
                    Natural::random_bits(rng, 1 + rng.below(1024)));
            const sim::BatchResult result =
                scheduler.mul_batch(pairs);
            for (std::size_t i = 0; i < pairs.size(); ++i)
                if (result.products[i] !=
                    pairs[i].first * pairs[i].second)
                    ++failures[t];
        });
    for (std::thread& thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(scheduler.stats().waves,
              static_cast<std::uint64_t>(kThreads));
}

TEST(ShardPolicy, EnvironmentParsingAndValidation)
{
    ::unsetenv("CAMP_SHARDS");
    ::unsetenv("CAMP_SHARD_BACKENDS");
    ::unsetenv("CAMP_SHARD_INFLIGHT");
    exec::ShardPolicy defaults = exec::shard_policy_from_env();
    EXPECT_EQ(defaults.shards, 1u);
    EXPECT_TRUE(defaults.backends.empty());

    ::setenv("CAMP_SHARDS", "4", 1);
    ::setenv("CAMP_SHARD_BACKENDS", "sim,cpu", 1);
    ::setenv("CAMP_SHARD_INFLIGHT", "3", 1);
    exec::ShardPolicy policy = exec::shard_policy_from_env();
    EXPECT_EQ(policy.shards, 4u);
    EXPECT_EQ(policy.backends,
              (std::vector<std::string>{"sim", "cpu"}));
    EXPECT_EQ(policy.max_inflight_waves, 3u);

    ::setenv("CAMP_SHARDS", "junk", 1);
    EXPECT_THROW(exec::shard_policy_from_env(),
                 camp::InvalidArgument);
    ::setenv("CAMP_SHARDS", "0", 1);
    EXPECT_THROW(exec::shard_policy_from_env(),
                 camp::InvalidArgument);
    ::unsetenv("CAMP_SHARDS");
    ::unsetenv("CAMP_SHARD_BACKENDS");
    ::unsetenv("CAMP_SHARD_INFLIGHT");

    // Recursion guard: a scheduler cannot shard onto itself.
    exec::ShardPolicy recursive;
    recursive.backends = {"sharded"};
    EXPECT_THROW(exec::ShardedScheduler(sim::default_config(),
                                        recursive),
                 camp::InvalidArgument);
}

TEST(ShardedScheduler, RegistryExposesShardedBackend)
{
    EXPECT_TRUE(
        exec::DeviceRegistry::instance().contains("sharded"));
    ::setenv("CAMP_SHARDS", "3", 1);
    const auto device = exec::make_device("sharded");
    ::unsetenv("CAMP_SHARDS");
    ASSERT_NE(device, nullptr);
    EXPECT_STREQ(device->name(), "sharded");
    auto* scheduler =
        dynamic_cast<exec::ShardedScheduler*>(device.get());
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->shard_count(), 3u);
    EXPECT_EQ(scheduler->kind(), exec::DeviceKind::Accelerator);

    const Natural a(123456789), b(987654321);
    EXPECT_EQ(device->mul(a, b).product, a * b);
}

TEST(RuntimeSharded, BatchFoldsSchedulerRecoveryIntoFaultStats)
{
    sim::SimConfig config = sim::default_config();
    config.faults.seed = 0xfa0175ull;
    config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.05;
    config.faults.rate_at(camp::FaultSite::GatherCarry) = 0.02;

    ::setenv("CAMP_SHARDS", "2", 1);
    const std::uint64_t checked_fallbacks_before =
        metrics::counter("exec.checked.fallbacks").value();
    Runtime runtime("sharded", config);
    ::unsetenv("CAMP_SHARDS");
    ASSERT_NE(runtime.scheduler(), nullptr);
    EXPECT_FALSE(runtime.self_check().enabled)
        << "outer wrapper stays transparent: shards self-check";

    camp::Rng rng(fuzz_seed(0xfeedface));
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 24; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 2048),
                           Natural::random_bits(rng, 2048));
    const sim::BatchResult result = runtime.multiply_batch(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        ASSERT_EQ(result.products[i],
                  pairs[i].first * pairs[i].second)
            << i;
    ASSERT_GT(result.faulty, 0u)
        << "rates must corrupt something for the accounting to bite";

    const exec::ShardedScheduler& scheduler = *runtime.scheduler();
    const exec::CheckStats shards = scheduler.check_stats();
    const camp::mpapca::FaultStats& faults = runtime.fault_stats();
    // Every detected-faulty product was redistributed...
    EXPECT_EQ(scheduler.stats().redistributed, result.faulty);
    // ... and the ledger owns the whole recovery story: batch-level
    // detections plus the peers' own golden-check recoveries.
    EXPECT_EQ(faults.detected, result.faulty + shards.detected);
    EXPECT_EQ(faults.checks,
              pairs.size() + shards.checks);
    EXPECT_EQ(faults.retried, shards.retried);
    EXPECT_EQ(faults.fallbacks,
              shards.fallbacks + scheduler.stats().cpu_fallbacks);
    EXPECT_GT(faults.injected, 0u);
    // The process-wide checked-device counter moved exactly by the
    // shards' recovery fallbacks.
    EXPECT_EQ(metrics::counter("exec.checked.fallbacks").value() -
                  checked_fallbacks_before,
              shards.fallbacks);
}

TEST(RuntimeSharded, MulFunctionalDecomposesThroughScheduler)
{
    // Beyond the shard cap the runtime decomposes in software and
    // drives the scheduler for every base product.
    ::setenv("CAMP_SHARDS", "2", 1);
    Runtime runtime("sharded");
    ::unsetenv("CAMP_SHARDS");
    camp::Rng rng(fuzz_seed(0xdec0de));
    const Natural a = Natural::random_bits(rng, 100000);
    const Natural b = Natural::random_bits(rng, 90000);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
    EXPECT_GT(runtime.base_products(), 1u);
}
