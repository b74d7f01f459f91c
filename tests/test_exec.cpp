/**
 * @file
 * Execution-plane tests: the device registry (built-ins, duplicates,
 * unknown names, CAMP_BACKEND), cross-backend bit-identity of products
 * (fuzzed), per-device tuning, the self-checking decorator's
 * retry/fallback policy against a deterministic flaky device, and the
 * coalescing submission queue (edge cases, flush semantics, and the
 * batch-coalescing cycle win).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/checked.hpp"
#include "exec/cpu_device.hpp"
#include "exec/device.hpp"
#include "exec/queue.hpp"
#include "exec/registry.hpp"
#include "exec/scheduler.hpp"
#include "exec/sim_device.hpp"
#include "exec/wave.hpp"
#include "fuzz_seed.hpp"
#include "mpapca/runtime.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "scoped_env.hpp"
#include "support/errors.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace exec = camp::exec;
namespace sim = camp::sim;
using camp::mpn::Natural;
using camp::mpapca::Runtime;

namespace {

/** Deterministically wrong device: the first @p failures mul() calls
 * return an off-by-one product (reporting one injected fault each),
 * later calls are exact. */
class FlakyDevice : public exec::Device
{
  public:
    explicit FlakyDevice(unsigned failures) : fail_remaining_(failures)
    {
    }

    const char* name() const override { return "flaky"; }
    exec::DeviceKind kind() const override
    {
        return exec::DeviceKind::Accelerator;
    }
    std::uint64_t base_cap_bits() const override { return 0; }

    exec::MulOutcome mul(const Natural& a, const Natural& b) override
    {
        ++calls_;
        Natural product = a * b;
        if (fail_remaining_ > 0) {
            --fail_remaining_;
            return exec::MulOutcome{product + Natural(1), 1};
        }
        return exec::MulOutcome{std::move(product), 0};
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
        }
        result.per_product.resize(items.size());
        return result;
    }

    exec::CostEstimate cost(std::uint64_t, std::uint64_t) const override
    {
        return {};
    }

    unsigned calls() const { return calls_; }

  private:
    unsigned fail_remaining_;
    unsigned calls_ = 0;
};

} // namespace

TEST(DeviceRegistry, BuiltinsAreRegistered)
{
    exec::DeviceRegistry& registry = exec::DeviceRegistry::instance();
    for (const char* name : {"cpu", "sim", "analytic"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
        const auto device = registry.create(name);
        ASSERT_NE(device, nullptr);
        EXPECT_STREQ(device->name(), name);
    }
    EXPECT_FALSE(registry.contains("gpu"));
}

TEST(DeviceRegistry, UnknownNameThrowsWithAvailableList)
{
    try {
        exec::make_device("not-a-backend");
        FAIL() << "expected camp::InvalidArgument";
    } catch (const camp::InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("not-a-backend"), std::string::npos);
        EXPECT_NE(what.find("cpu"), std::string::npos);
        EXPECT_NE(what.find("sim"), std::string::npos);
    }
}

TEST(DeviceRegistry, DuplicateAndDegenerateRegistrationsRejected)
{
    exec::DeviceRegistry& registry = exec::DeviceRegistry::instance();
    EXPECT_THROW(registry.add("cpu",
                              [](const sim::SimConfig& config) {
                                  return std::make_unique<
                                      exec::CpuDevice>(config);
                              }),
                 camp::InvalidArgument);
    EXPECT_THROW(registry.add("", [](const sim::SimConfig& config) {
        return std::make_unique<exec::CpuDevice>(config);
    }),
                 camp::InvalidArgument);
    EXPECT_THROW(registry.add("null-factory", exec::DeviceFactory{}),
                 camp::InvalidArgument);
}

TEST(DeviceRegistry, CustomBackendRoundTrips)
{
    exec::DeviceRegistry& registry = exec::DeviceRegistry::instance();
    registry.add("test-flaky", [](const sim::SimConfig&) {
        return std::make_unique<FlakyDevice>(0);
    });
    EXPECT_TRUE(registry.contains("test-flaky"));
    const auto device = registry.create("test-flaky");
    EXPECT_STREQ(device->name(), "flaky");
}

TEST(DeviceRegistry, EnvSelectsDefaultBackend)
{
    ::unsetenv("CAMP_BACKEND");
    EXPECT_EQ(exec::default_device_name(), "cpu");
    EXPECT_EQ(exec::default_device_name("sim"), "sim");
    ::setenv("CAMP_BACKEND", "analytic", 1);
    EXPECT_EQ(exec::default_device_name(), "analytic");
    EXPECT_EQ(exec::default_device_name("sim"), "analytic");
    ::unsetenv("CAMP_BACKEND");
}

TEST(DeviceTuning, RetunedThresholdsMatchDecompositionPolicy)
{
    // At the paper's 35904-bit base case the first software algorithm
    // engages exactly above the cap and Toom-3 exactly above six caps
    // (the seed decomposition policy), in monotone order.
    const camp::mpn::MulTuning t = exec::retuned_for_cap(35904);
    EXPECT_EQ(t.karatsuba * 64, 35904u);
    EXPECT_EQ(t.toom3 * 64, 6u * 35904u);
    EXPECT_TRUE(camp::mpn::mul_tuning_monotone(t));
}

TEST(DeviceTuning, PerDeviceEnvOverridesApply)
{
    ::setenv("CAMP_TESTDEV_MUL_THRESH_TOOM3", "1234", 1);
    ::setenv("CAMP_TESTDEV_MUL_THRESH_PARALLEL", "99", 1);
    camp::mpn::MulTuning base;
    const camp::mpn::MulTuning tuned =
        exec::apply_device_env_tuning("testdev", base);
    EXPECT_EQ(tuned.toom3, 1234u);
    EXPECT_EQ(tuned.parallel, 99u);
    EXPECT_EQ(tuned.karatsuba, base.karatsuba) << "untouched fields";
    // Another device name sees none of it.
    const camp::mpn::MulTuning other =
        exec::apply_device_env_tuning("otherdev", base);
    EXPECT_EQ(other.toom3, base.toom3);
    ::unsetenv("CAMP_TESTDEV_MUL_THRESH_TOOM3");
    ::unsetenv("CAMP_TESTDEV_MUL_THRESH_PARALLEL");
}

namespace {

const char* const kThreshFields[] = {"KARATSUBA", "TOOM3", "TOOM4",
                                     "TOOM6",     "SSA",   "PARALLEL"};

} // namespace

TEST(DeviceTuning, PerDeviceEnvRejectsJunkEmptyAndOverflow)
{
    for (const char* field : kThreshFields)
        expect_env_rejects(
            std::string("CAMP_TESTDEV_MUL_THRESH_") + field, kJunkValues,
            [] {
                exec::apply_device_env_tuning("testdev",
                                              camp::mpn::MulTuning{});
            });
    // Thresholds are size_t: a value past 2^32 is valid, not wrapped.
    const ScopedEnv big("CAMP_TESTDEV_MUL_THRESH_SSA", "4294967297");
    EXPECT_EQ(exec::apply_device_env_tuning("testdev",
                                            camp::mpn::MulTuning{})
                  .ssa,
              std::size_t{4294967297ull});
}

TEST(DeviceTuning, GlobalMulThreshEnvRejectsJunkEmptyAndOverflow)
{
    for (const char* field : kThreshFields)
        expect_env_rejects(std::string("CAMP_MUL_THRESH_") + field,
                           kJunkValues, [] {
                               camp::mpn::env_tuning(
                                   "CAMP_MUL_THRESH_",
                                   camp::mpn::MulTuning{});
                           });
    const ScopedEnv ok("CAMP_MUL_THRESH_TOOM3", "100");
    EXPECT_EQ(camp::mpn::env_tuning("CAMP_MUL_THRESH_",
                                    camp::mpn::MulTuning{})
                  .toom3,
              100u);
}

TEST(DeviceTuning, ShardEnvRejectsJunkEmptyAndOverflow)
{
    for (const char* name : {"CAMP_SHARDS", "CAMP_SHARD_INFLIGHT"}) {
        const auto parse = [] { exec::shard_policy_from_env(); };
        expect_env_rejects(name, kJunkValues, parse);
        // Unsigned fields: past UINT_MAX a narrowing cast would wrap
        // (4294967297 used to build 1 shard).
        expect_env_rejects(name, {"4294967296", "4294967297"}, parse);
    }
    const ScopedEnv ok("CAMP_SHARDS", "4294967295");
    EXPECT_EQ(exec::shard_policy_from_env().shards, 4294967295u);
}

TEST(ExecDevices, FuzzProductsBitIdenticalAcrossBackends)
{
    // The acceptance fuzz: >= 1000 random pairs within the monolithic
    // capability must multiply bit-identically on every backend.
    const std::uint64_t seed = fuzz_seed(0xe8ec0011ull);
    const auto cpu = exec::make_device("cpu");
    const auto simd = exec::make_device("sim");
    const auto analytic = exec::make_device("analytic");
    camp::Rng rng(seed);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t bits_a = 1 + rng.below(4096);
        const std::uint64_t bits_b = 1 + rng.below(4096);
        const Natural a = Natural::random_bits(rng, bits_a);
        const Natural b = Natural::random_bits(rng, bits_b);
        const Natural golden = a * b;
        ASSERT_EQ(cpu->mul(a, b).product, golden)
            << "cpu i=" << i << " CAMP_FUZZ_SEED=" << seed;
        ASSERT_EQ(simd->mul(a, b).product, golden)
            << "sim i=" << i << " CAMP_FUZZ_SEED=" << seed;
        ASSERT_EQ(analytic->mul(a, b).product, golden)
            << "analytic i=" << i << " CAMP_FUZZ_SEED=" << seed;
    }
    // And once at the exact monolithic boundary.
    const std::uint64_t cap = sim::default_config().monolithic_cap_bits;
    const Natural a = Natural::random_bits(rng, cap);
    const Natural b = Natural::random_bits(rng, cap);
    const Natural golden = a * b;
    EXPECT_EQ(cpu->mul(a, b).product, golden);
    EXPECT_EQ(simd->mul(a, b).product, golden);
    EXPECT_EQ(analytic->mul(a, b).product, golden);
}

TEST(ExecDevices, BatchProductsBitIdenticalAcrossBackends)
{
    camp::Rng rng(fuzz_seed(4041));
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 24; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 1 + rng.below(3000)),
                           Natural::random_bits(rng, 1 + rng.below(3000)));
    pairs.emplace_back(Natural(), Natural(7)); // zero operand
    pairs.push_back(pairs.front());            // duplicated pair

    const sim::BatchResult on_cpu =
        exec::make_device("cpu")->mul_batch(pairs);
    const sim::BatchResult on_sim =
        exec::make_device("sim")->mul_batch(pairs);
    const sim::BatchResult on_analytic =
        exec::make_device("analytic")->mul_batch(pairs);
    ASSERT_EQ(on_cpu.products.size(), pairs.size());
    ASSERT_EQ(on_sim.products.size(), pairs.size());
    ASSERT_EQ(on_analytic.products.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const Natural golden = pairs[i].first * pairs[i].second;
        EXPECT_EQ(on_cpu.products[i], golden) << i;
        EXPECT_EQ(on_sim.products[i], golden) << i;
        EXPECT_EQ(on_analytic.products[i], golden) << i;
    }
    // Simulated and modelled accounting agree on the schedule shape.
    EXPECT_EQ(on_sim.tasks, on_analytic.tasks);
    EXPECT_EQ(on_sim.waves, on_analytic.waves);
}

TEST(ExecDevices, WaveForksOnlyWhenWorkPays)
{
    // The host fork rule (DESIGN.md §8): a wave forks only when its
    // schoolbook work fills at least two kForkChunkWork slices
    // (fork_slices). A 2 x 256-bit wave (32 limb-products) runs on the
    // caller; a 16 x 16384-bit wave (about 1M) fans out. Products are
    // exact either way. pool.submits counts every forked task.
    if (!camp::support::ThreadPool::global().parallel())
        GTEST_SKIP() << "serial pool: no wave ever forks";
    const std::uint64_t seed = fuzz_seed(0xf02c0de);
    camp::Rng rng(seed);
    camp::support::metrics::Counter& submits =
        camp::support::metrics::counter("pool.submits");

    struct Wave
    {
        exec::WaveBuffer buffer;
        std::vector<Natural> golden;
        std::vector<std::size_t> items;
        std::vector<std::uint64_t> indices;
    };
    const auto fill = [&rng](Wave& wave, std::size_t count,
                             std::uint64_t max_bits) {
        for (std::size_t i = 0; i < count; ++i) {
            const Natural a = Natural::random_bits(
                rng, max_bits - rng.below(max_bits / 2));
            const Natural b = Natural::random_bits(
                rng, max_bits - rng.below(max_bits / 2));
            wave.golden.push_back(a * b);
            wave.items.push_back(wave.buffer.add(a, b));
            wave.indices.push_back(i);
        }
    };
    const auto expect_exact = [seed](const Wave& wave, const char* what) {
        for (std::size_t i = 0; i < wave.golden.size(); ++i)
            ASSERT_EQ(wave.buffer.take_result(i), wave.golden[i])
                << what << " item " << i << " CAMP_FUZZ_SEED=" << seed;
    };

    exec::CpuDevice cpu;
    Wave small, large;
    fill(small, 2, 256);
    fill(large, 16, 16384);
    ASSERT_LT(exec::fork_slices(small.buffer, small.items, 64), 2u);
    std::uint64_t before = submits.value();
    cpu.mul_batch_wave(small.buffer, small.items, small.indices, 0);
    EXPECT_EQ(submits.value(), before) << "a 2 x 256-bit wave forked";
    expect_exact(small, "cpu small");
    before = submits.value();
    cpu.mul_batch_wave(large.buffer, large.items, large.indices, 0);
    EXPECT_GT(submits.value(), before)
        << "a 16 x 16384-bit wave ran on one thread";
    expect_exact(large, "cpu large");
}

TEST(ExecDevices, SimDeviceRejectsOversizedBaseProduct)
{
    const auto device = exec::make_device("sim");
    const std::uint64_t cap = device->base_cap_bits();
    ASSERT_GT(cap, 0u);
    camp::Rng rng(4242);
    const Natural a = Natural::random_bits(rng, cap + 1);
    const Natural b = Natural::random_bits(rng, 128);
    EXPECT_THROW(device->mul(a, b), camp::InvalidArgument);
}

TEST(CheckedDevice, DisabledPolicyPassesProductsThrough)
{
    exec::CheckPolicy policy; // disabled
    exec::CheckedDevice checked(std::make_unique<FlakyDevice>(1),
                                policy);
    const Natural a(12345), b(678);
    // Unchecked: the flaky first product leaks through untouched.
    EXPECT_EQ(checked.mul(a, b).product, a * b + Natural(1));
    EXPECT_EQ(checked.stats().checks, 0u);
    EXPECT_EQ(checked.stats().detected, 0u);
}

TEST(CheckedDevice, RetryRecoversTransientFault)
{
    exec::CheckPolicy policy;
    policy.enabled = true;
    exec::CheckedDevice checked(std::make_unique<FlakyDevice>(1),
                                policy);
    std::vector<std::string> diagnostics;
    checked.set_diagnostic_sink(
        [&diagnostics](const std::string& d) {
            diagnostics.push_back(d);
        });
    const Natural a(99991), b(99989);
    const exec::MulOutcome outcome = checked.mul(a, b);
    EXPECT_EQ(outcome.product, a * b);
    EXPECT_EQ(outcome.injected, 1u) << "faulty attempt's injection";
    const exec::CheckStats& stats = checked.stats();
    EXPECT_EQ(stats.checks, 1u);
    EXPECT_EQ(stats.detected, 1u);
    EXPECT_EQ(stats.retried, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_NE(diagnostics[0].find("retrying"), std::string::npos);
}

TEST(CheckedDevice, ExhaustedBudgetFallsBackToGolden)
{
    exec::CheckPolicy policy;
    policy.enabled = true;
    policy.retry_budget = 2;
    // Fails more often than the budget allows: must fall back.
    auto flaky = std::make_unique<FlakyDevice>(100);
    FlakyDevice* raw = flaky.get();
    exec::CheckedDevice checked(std::move(flaky), policy);
    const Natural a(31337), b(271828);
    const exec::MulOutcome outcome = checked.mul(a, b);
    EXPECT_EQ(outcome.product, a * b) << "fallback serves the exact product";
    const exec::CheckStats& stats = checked.stats();
    EXPECT_EQ(stats.checks, 1u);
    EXPECT_EQ(stats.retried, policy.retry_budget);
    EXPECT_EQ(stats.fallbacks, 1u);
    EXPECT_EQ(stats.detected, stats.retried + stats.fallbacks);
    EXPECT_EQ(raw->calls(), 1u + policy.retry_budget);
    EXPECT_EQ(outcome.injected, 1u + policy.retry_budget)
        << "every faulty attempt's injection is accumulated";
}

TEST(CheckedDevice, ZeroSampleRateNeverChecks)
{
    exec::CheckPolicy policy;
    policy.enabled = true;
    policy.sample_rate = 0.0;
    exec::CheckedDevice checked(std::make_unique<FlakyDevice>(100),
                                policy);
    const Natural a(5), b(7);
    for (int i = 0; i < 10; ++i)
        checked.mul(a, b);
    EXPECT_EQ(checked.stats().checks, 0u);
    EXPECT_EQ(checked.stats().detected, 0u);
}

TEST(CheckedDevice, TuningForwardsToInner)
{
    exec::CheckedDevice checked(
        std::make_unique<exec::CpuDevice>(), exec::CheckPolicy{});
    camp::mpn::MulTuning tuning = checked.tuning();
    tuning.toom3 = tuning.karatsuba + 777;
    checked.set_tuning(tuning);
    EXPECT_EQ(checked.inner().tuning().toom3, tuning.toom3);
    EXPECT_EQ(checked.tuning().toom3, tuning.toom3);
}

TEST(SubmitQueue, EmptyQueueIsInert)
{
    auto device = exec::make_device("sim");
    exec::SubmitQueue queue(*device);
    EXPECT_EQ(queue.flush(), 0u);
    queue.wait_all();
    EXPECT_EQ(queue.pending(), 0u);
    const exec::QueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.flushes, 0u);
}

TEST(SubmitQueue, SinglePairResolvesExactly)
{
    auto device = exec::make_device("sim");
    exec::SubmitQueue queue(*device);
    camp::Rng rng(5100);
    const Natural a = Natural::random_bits(rng, 2000);
    const Natural b = Natural::random_bits(rng, 1500);
    exec::SubmitQueue::Future future = queue.submit(a, b);
    EXPECT_FALSE(future.ready()) << "nothing executes before a flush";
    EXPECT_EQ(future.get(), a * b);
    EXPECT_TRUE(future.ready());
    EXPECT_EQ(future.injected(), 0u);
    EXPECT_FALSE(future.faulty());
    const exec::QueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.flushes, 1u);
    EXPECT_EQ(stats.largest_batch, 1u);
}

TEST(SubmitQueue, CoalescesIndependentSubmissionsIntoOneBatch)
{
    auto device = exec::make_device("sim");
    exec::SubmitQueue queue(*device);
    camp::Rng rng(fuzz_seed(5200));
    std::vector<std::pair<Natural, Natural>> pairs;
    std::vector<exec::SubmitQueue::Future> futures;
    for (int i = 0; i < 16; ++i) {
        pairs.emplace_back(Natural::random_bits(rng, 1 + rng.below(2048)),
                           Natural::random_bits(rng, 1 + rng.below(2048)));
        futures.push_back(
            queue.submit(pairs.back().first, pairs.back().second));
    }
    pairs.emplace_back(Natural(), Natural(5)); // zero operand
    futures.push_back(queue.submit(pairs.back().first, pairs.back().second));
    pairs.push_back(pairs.front()); // duplicated pair
    futures.push_back(queue.submit(pairs.back().first, pairs.back().second));

    EXPECT_EQ(queue.pending(), pairs.size());
    // The first get() drains everything buffered in ONE coalesced batch.
    EXPECT_EQ(futures.front().get(), pairs.front().first * pairs.front().second);
    const exec::QueueStats stats = queue.stats();
    EXPECT_EQ(stats.flushes, 1u);
    EXPECT_EQ(stats.largest_batch, pairs.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
        EXPECT_TRUE(futures[i].ready()) << i;
        EXPECT_EQ(futures[i].get(), pairs[i].first * pairs[i].second)
            << i;
    }
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(SubmitQueue, WatermarkAutoFlushes)
{
    auto device = exec::make_device("sim");
    exec::SubmitQueue queue(*device, /*max_pending=*/4);
    camp::Rng rng(5300);
    std::vector<exec::SubmitQueue::Future> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(queue.submit(Natural::random_bits(rng, 512),
                                       Natural::random_bits(rng, 512)));
    // 10 submissions at watermark 4: two full batches executed, the
    // trailing 2 still buffered.
    const exec::QueueStats stats = queue.stats();
    EXPECT_EQ(stats.flushes, 2u);
    EXPECT_EQ(stats.largest_batch, 4u);
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_TRUE(futures[0].ready());
    EXPECT_FALSE(futures[9].ready());
    queue.wait_all();
    EXPECT_TRUE(futures[9].ready());
    EXPECT_EQ(queue.stats().flushes, 3u);
}

TEST(SubmitQueue, CoalescedBatchBeatsSerialSubmissionCycles)
{
    // The point of coalescing: tasks from independent products pack
    // the IPU fabric in shared waves, so one coalesced batch costs
    // fewer simulated cycles than the same products submitted and
    // flushed one at a time. Deterministic (pure schedule counts).
    auto device = exec::make_device("sim");
    camp::Rng rng(5400);
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 64; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 2048),
                           Natural::random_bits(rng, 2048));

    exec::SubmitQueue serial(*device);
    std::uint64_t serial_cycles = 0;
    for (const auto& [a, b] : pairs) {
        serial.submit(a, b);
        serial.flush(); // one product per batch: no coalescing
    }
    serial_cycles = serial.stats().sim_cycles;

    exec::SubmitQueue coalesced(*device);
    for (const auto& [a, b] : pairs)
        coalesced.submit(a, b);
    coalesced.wait_all();
    const std::uint64_t coalesced_cycles =
        coalesced.stats().sim_cycles;

    EXPECT_EQ(coalesced.stats().flushes, 1u);
    EXPECT_LT(coalesced_cycles, serial_cycles)
        << "coalescing must reduce simulated cycles";
    // 64 x 2048-bit products: 64 partial waves pool into far fewer
    // shared waves; demand at least a 2x cycle win.
    EXPECT_LT(2 * coalesced_cycles, serial_cycles);
}

namespace {

/** Device whose batch path throws a configurable exception for the
 * first @p failures flushes, then heals and computes exactly. */
class ThrowingBatchDevice : public exec::Device
{
  public:
    ThrowingBatchDevice(std::function<void()> thrower,
                        unsigned failures)
        : thrower_(std::move(thrower)), fail_remaining_(failures)
    {
    }

    const char* name() const override { return "throwing-batch"; }
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
        if (fail_remaining_ > 0) {
            --fail_remaining_;
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
    unsigned fail_remaining_;
};

} // namespace

TEST(SubmitQueue, FlushFailurePreservesErrorCategory)
{
    // A device throw during a flush must reach every waiter typed —
    // retryable HardwareFault distinguishable from fatal
    // InvalidArgument — and must not wedge the queue.
    ThrowingBatchDevice device(
        [] { throw camp::HardwareFault("fabric offline"); },
        /*failures=*/1);
    exec::SubmitQueue queue(device);
    auto f1 = queue.submit(Natural(3), Natural(5));
    auto f2 = queue.submit(Natural(7), Natural(11));
    queue.flush();
    ASSERT_TRUE(f1.ready());
    ASSERT_TRUE(f2.ready());
    EXPECT_EQ(f1.error(), camp::ErrorCode::HardwareFault);
    EXPECT_EQ(f2.error(), camp::ErrorCode::HardwareFault);
    try {
        f1.get();
        FAIL() << "get() must rethrow the flush failure";
    } catch (const camp::HardwareFault& e) {
        EXPECT_STREQ(e.what(), "fabric offline");
    }
    EXPECT_THROW(f2.get(), camp::HardwareFault);
    const exec::QueueStats stats = queue.stats();
    EXPECT_EQ(stats.failed, 2u);
    EXPECT_EQ(stats.flushes, 1u);

    // The queue survives: the device healed, the next flush resolves.
    auto f3 = queue.submit(Natural(13), Natural(17));
    EXPECT_EQ(f3.get(), Natural(13 * 17));
    EXPECT_EQ(f3.error(), camp::ErrorCode::Ok);
    EXPECT_EQ(queue.stats().failed, 2u);
}

TEST(SubmitQueue, FlushFailurePreservesInvalidArgument)
{
    ThrowingBatchDevice device(
        [] { throw camp::InvalidArgument("operand too wide"); },
        /*failures=*/1);
    exec::SubmitQueue queue(device);
    auto future = queue.submit(Natural(2), Natural(9));
    EXPECT_THROW(future.get(), camp::InvalidArgument);
    EXPECT_EQ(future.error(), camp::ErrorCode::InvalidArgument);
    EXPECT_FALSE(camp::error_retryable(future.error()));

    // Unclassified exceptions cross the boundary as Internal.
    ThrowingBatchDevice opaque(
        [] { throw std::runtime_error("???"); }, /*failures=*/1);
    exec::SubmitQueue queue2(opaque);
    auto f2 = queue2.submit(Natural(1), Natural(1));
    EXPECT_THROW(f2.get(), camp::Error);
    EXPECT_EQ(f2.error(), camp::ErrorCode::Internal);
}

TEST(SubmitQueue, TakeMovesProductOutWithoutCopy)
{
    // take() hands the delivered limb vector to the caller by move —
    // the serving front-end uses it to avoid one deep copy per
    // response (DESIGN.md §14).
    auto device = exec::make_device("sim");
    exec::SubmitQueue queue(*device);
    camp::Rng rng(5600);
    const Natural a = Natural::random_bits(rng, 3000);
    const Natural b = Natural::random_bits(rng, 2500);
    exec::SubmitQueue::Future future = queue.submit(a, b);
    const Natural product = future.take();
    EXPECT_EQ(product, a * b);
    EXPECT_TRUE(future.ready());
    EXPECT_EQ(future.error(), camp::ErrorCode::Ok);
    EXPECT_FALSE(future.faulty());

    // Mixed access stays fine on distinct futures of one batch.
    auto f1 = queue.submit(Natural(3), Natural(5));
    auto f2 = queue.submit(Natural(7), Natural(11));
    queue.flush();
    EXPECT_EQ(f1.get(), Natural(15));
    EXPECT_EQ(f2.take(), Natural(77));
}

TEST(SubmitQueue, TakeRethrowsTypedFlushFailure)
{
    ThrowingBatchDevice device(
        [] { throw camp::HardwareFault("fabric offline"); },
        /*failures=*/1);
    exec::SubmitQueue queue(device);
    auto future = queue.submit(Natural(2), Natural(9));
    EXPECT_THROW(future.take(), camp::HardwareFault);
    EXPECT_EQ(future.error(), camp::ErrorCode::HardwareFault);
}

TEST(RuntimeExec, StringBackendMatchesEnumBackend)
{
    // Registry names are the one construction path: two runtimes built
    // from the same name decompose identically.
    Runtime first("sim");
    Runtime by_name("sim");
    camp::Rng rng(6000);
    const Natural a = Natural::random_bits(rng, 100000);
    const Natural b = Natural::random_bits(rng, 99000);
    EXPECT_EQ(first.mul_functional(a, b), by_name.mul_functional(a, b));
    EXPECT_EQ(first.base_products(), by_name.base_products())
        << "identical decomposition on both instances";
    EXPECT_EQ(by_name.device().kind(), exec::DeviceKind::Accelerator);
    EXPECT_EQ(Runtime("cpu").device().kind(), exec::DeviceKind::Host);
    EXPECT_THROW(Runtime("not-a-backend"), camp::InvalidArgument);
}

TEST(RuntimeExec, FunctionalMulBitIdenticalAcrossBackends)
{
    camp::Rng rng(6100);
    // Oversized: forces decomposition on sim/analytic, monolithic on cpu.
    const Natural a = Natural::random_bits(rng, 90000);
    const Natural b = Natural::random_bits(rng, 80000);
    const Natural golden = a * b;
    for (const char* name : {"cpu", "sim", "analytic"}) {
        Runtime runtime(name);
        EXPECT_EQ(runtime.mul_functional(a, b), golden) << name;
    }
    Runtime cpu("cpu");
    cpu.mul_functional(a, b);
    EXPECT_EQ(cpu.base_products(), 1u)
        << "the host takes any size monolithically";
}

TEST(RuntimeExec, MultiplyBatchEdgeCases)
{
    Runtime runtime("sim");
    // Empty batch: a no-op, not a crash.
    const sim::BatchResult empty = runtime.multiply_batch({});
    EXPECT_TRUE(empty.products.empty());
    EXPECT_EQ(empty.cycles, 0u);
    EXPECT_EQ(runtime.base_products(), 0u);

    camp::Rng rng(6200);
    // Single pair stays serial by policy.
    const Natural a = Natural::random_bits(rng, 1024);
    const Natural b = Natural::random_bits(rng, 768);
    const sim::BatchResult single = runtime.multiply_batch({{a, b}});
    ASSERT_EQ(single.products.size(), 1u);
    EXPECT_EQ(single.products[0], a * b);
    EXPECT_EQ(single.parallelism, 1u);
    EXPECT_EQ(runtime.base_products(), 1u);

    // Zero operands and duplicated pairs.
    std::vector<std::pair<Natural, Natural>> pairs;
    pairs.emplace_back(Natural(), Natural(123));
    pairs.emplace_back(Natural(55), Natural());
    pairs.emplace_back(a, b);
    pairs.emplace_back(a, b);
    const sim::BatchResult mixed = runtime.multiply_batch(pairs);
    ASSERT_EQ(mixed.products.size(), pairs.size());
    EXPECT_TRUE(mixed.products[0].is_zero());
    EXPECT_TRUE(mixed.products[1].is_zero());
    EXPECT_EQ(mixed.products[2], a * b);
    EXPECT_EQ(mixed.products[3], a * b);
    EXPECT_EQ(mixed.per_product[2], mixed.per_product[3])
        << "duplicated pairs account identically (no faults armed)";
}

TEST(RuntimeExec, BatchSerialAndPooledBitIdentical)
{
    // CAMP_THREADS=1 vs pooled execution must produce identical
    // products AND identical per-product accounting; exercised through
    // the device's explicit parallelism switch so the test is
    // meaningful on any host core count.
    Runtime runtime("sim");
    camp::Rng rng(fuzz_seed(6300));
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 12; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 1 + rng.below(2000)),
                           Natural::random_bits(rng, 1 + rng.below(2000)));
    const sim::BatchResult serial =
        runtime.device().mul_batch(pairs, /*parallelism=*/1);
    const sim::BatchResult pooled =
        runtime.device().mul_batch(pairs, /*parallelism=*/0);
    ASSERT_EQ(serial.products.size(), pooled.products.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(serial.products[i], pooled.products[i]) << i;
        EXPECT_EQ(serial.per_product[i], pooled.per_product[i]) << i;
    }
    EXPECT_EQ(serial.cycles, pooled.cycles);
    EXPECT_EQ(serial.tasks, pooled.tasks);
}
