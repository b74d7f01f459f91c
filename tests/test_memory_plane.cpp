/**
 * @file
 * Memory-plane tests (DESIGN.md §14): LimbArena invariants (alignment,
 * size-class reuse, cross-thread release, scratch blocks returned at
 * thread exit, byte-budget exhaustion, accounting, the env knob)
 * plus the WaveBuffer lifetime rules, and the differential
 * lifetime/aliasing fuzz — wave construction, in-place reuse, early
 * release, and shard redistribution interleaved while asserting every
 * backend's wave path against independent references (the mpn
 * product, sim::BatchEngine, the analytic model). Replay any failure
 * with CAMP_FUZZ_SEED.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "exec/analytic_device.hpp"
#include "exec/cpu_device.hpp"
#include "exec/queue.hpp"
#include "exec/scheduler.hpp"
#include "exec/sim_device.hpp"
#include "exec/wave.hpp"
#include "fuzz_seed.hpp"
#include "mpn/natural.hpp"
#include "mpn/view.hpp"
#include "scoped_env.hpp"
#include "serve/breaker.hpp"
#include "sim/analytic_model.hpp"
#include "sim/batch.hpp"
#include "support/arena.hpp"
#include "support/errors.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace exec = camp::exec;
namespace sim = camp::sim;
namespace support = camp::support;
namespace metrics = camp::support::metrics;
using camp::mpn::LimbView;
using camp::mpn::Natural;
using support::ArenaOptions;
using support::LimbArena;

namespace {

exec::ShardPolicy
never_drain(unsigned shards)
{
    exec::ShardPolicy policy;
    policy.shards = shards;
    policy.drain_fault_threshold = 0;
    return policy;
}

} // namespace

// ---------------------------------------------------------------------
// LimbArena invariants
// ---------------------------------------------------------------------

TEST(LimbArena, BlocksAreCacheLineAlignedAcrossClasses)
{
    LimbArena arena;
    std::vector<std::pair<std::uint64_t*, std::size_t>> blocks;
    for (const std::size_t words :
         {std::size_t{0}, std::size_t{1}, std::size_t{8},
          std::size_t{9}, std::size_t{100}, std::size_t{4096},
          LimbArena::kMaxClassWords, LimbArena::kMaxClassWords + 1}) {
        std::uint64_t* p = arena.alloc(words);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u)
            << "words=" << words;
        // The block is writable over the whole class capacity.
        const std::size_t cap = LimbArena::size_class_words(words);
        p[0] = 1;
        p[cap - 1] = 2;
        blocks.emplace_back(p, words);
    }
    for (auto& [p, words] : blocks)
        arena.release(p, words);
    const support::ArenaStats stats = arena.stats();
    EXPECT_EQ(stats.allocs, blocks.size());
    EXPECT_EQ(stats.releases, blocks.size());
    EXPECT_EQ(stats.oversize_allocs, 1u);
}

TEST(LimbArena, SizeClassesArePowersOfTwoWithinBounds)
{
    EXPECT_EQ(LimbArena::size_class_words(0), LimbArena::kMinClassWords);
    EXPECT_EQ(LimbArena::size_class_words(1), LimbArena::kMinClassWords);
    EXPECT_EQ(LimbArena::size_class_words(8), 8u);
    EXPECT_EQ(LimbArena::size_class_words(9), 16u);
    EXPECT_EQ(LimbArena::size_class_words(1000), 1024u);
    EXPECT_EQ(LimbArena::size_class_words(LimbArena::kMaxClassWords),
              LimbArena::kMaxClassWords);
    // Oversize passes through exactly.
    EXPECT_EQ(LimbArena::size_class_words(LimbArena::kMaxClassWords + 5),
              LimbArena::kMaxClassWords + 5);
}

TEST(LimbArena, MagazineServesSameClassLifo)
{
    LimbArena arena;
    std::uint64_t* a = arena.alloc(10); // class: 16 words
    std::uint64_t* b = arena.alloc(16);
    arena.release(a, 10);
    arena.release(b, 16);
    // Same class, other word counts: the class free list, LIFO.
    std::uint64_t* c = arena.alloc(9);
    std::uint64_t* d = arena.alloc(12);
    EXPECT_EQ(c, b);
    EXPECT_EQ(d, a);
    arena.release(c, 9);
    arena.release(d, 12);
    const support::ArenaStats stats = arena.stats();
    EXPECT_EQ(stats.free_list_hits, 2u);
    EXPECT_EQ(stats.held_bytes, 2 * 16 * sizeof(std::uint64_t));
}

TEST(LimbArena, BlockReleasedOnAnotherThreadIsReused)
{
    LimbArena arena;
    std::uint64_t* p = arena.alloc(64);
    std::thread([&arena, p] { arena.release(p, 64); }).join();
    EXPECT_EQ(arena.stats().live_bytes, 0u);
    std::uint64_t* q = arena.alloc(64);
    EXPECT_EQ(q, p);
    arena.release(q, 64);
    // And the other way round: taken on another thread, returned here.
    std::uint64_t* r = nullptr;
    std::thread([&arena, &r] { r = arena.alloc(64); }).join();
    EXPECT_EQ(r, p);
    arena.release(r, 64);
    const support::ArenaStats stats = arena.stats();
    EXPECT_EQ(stats.free_list_hits, 2u);
    EXPECT_EQ(stats.held_bytes, 64 * sizeof(std::uint64_t));
    EXPECT_EQ(stats.live_bytes, 0u);
}

TEST(LimbArena, ScratchBlocksReturnAtThreadExit)
{
    // A thread's scratch blocks come from the global arena and go back
    // to it when the thread exits, spilled block included.
    LimbArena& arena = LimbArena::global();
    const std::uint64_t before = arena.stats().live_bytes;
    std::uint64_t during = 0;
    std::thread([&arena, &during] {
        support::ScratchFrame frame;
        frame.alloc(16)[0] = 1;
        frame.alloc(std::size_t{1} << 14)[0] = 2; // past the first block
        during = arena.stats().live_bytes;
    }).join();
    EXPECT_GT(during, before);
    EXPECT_EQ(arena.stats().live_bytes, before);
}

TEST(LimbArena, BudgetExhaustionThrowsBeforeMutationAndRecovers)
{
    ArenaOptions options;
    options.max_bytes = std::size_t{1} << 20; // one 2^17-word block
    LimbArena arena(options);
    std::uint64_t* big = arena.alloc(std::size_t{1} << 17);
    ASSERT_NE(big, nullptr);
    const support::ArenaStats before = arena.stats();
    EXPECT_THROW(arena.alloc(std::size_t{1} << 17),
                 camp::ResourceExhausted);
    // The failed request mutated nothing.
    const support::ArenaStats after = arena.stats();
    EXPECT_EQ(after.held_bytes, before.held_bytes);
    EXPECT_EQ(after.live_bytes, before.live_bytes);
    // Freed capacity is immediately reusable within the same budget.
    arena.release(big, std::size_t{1} << 17);
    std::uint64_t* again = arena.alloc(std::size_t{1} << 17);
    EXPECT_NE(again, nullptr);
    arena.release(again, std::size_t{1} << 17);
}

TEST(LimbArena, OversizeRequestsRespectBudgetToo)
{
    ArenaOptions options;
    options.max_bytes = 1 << 16; // far below one oversize block
    LimbArena arena(options);
    EXPECT_THROW(arena.alloc(LimbArena::kMaxClassWords + 1),
                 camp::ResourceExhausted);
    // Small allocations still fit.
    std::uint64_t* p = arena.alloc(8);
    EXPECT_NE(p, nullptr);
    arena.release(p, 8);
}

TEST(LimbArena, HighWaterTracksPeakLiveBytes)
{
    LimbArena arena;
    std::uint64_t* a = arena.alloc(64);
    std::uint64_t* b = arena.alloc(64);
    const support::ArenaStats peak = arena.stats();
    EXPECT_EQ(peak.live_bytes, 2 * 64 * sizeof(std::uint64_t));
    EXPECT_EQ(peak.high_water_bytes, peak.live_bytes);
    arena.release(a, 64);
    arena.release(b, 64);
    const support::ArenaStats after = arena.stats();
    EXPECT_EQ(after.live_bytes, 0u);
    EXPECT_EQ(after.high_water_bytes, peak.high_water_bytes);
}

TEST(LimbArena, GlobalArenaPublishesMetrics)
{
    const std::uint64_t before =
        metrics::counter("arena.alloc.count").value();
    std::uint64_t* p = LimbArena::global().alloc(32);
    LimbArena::global().release(p, 32);
    EXPECT_GE(metrics::counter("arena.alloc.count").value(),
              before + 1);
}

TEST(LimbArena, MaxBytesEnvRejectsJunkEmptyAndOverflow)
{
    const auto parse = [] { support::arena_options_from_env(); };
    // The private parser this replaced read "64MB" as 64 and wrapped
    // values past 2^64.
    expect_env_rejects("CAMP_ARENA_MAX_BYTES",
                       {"abc", "64MB", "1e6", "", "-3", " 7x",
                        "123456789012345678901234567890"},
                       parse);
    {
        const ScopedEnv zero("CAMP_ARENA_MAX_BYTES", "0");
        EXPECT_EQ(support::arena_options_from_env().max_bytes, 0u);
    }
    const ScopedEnv ok("CAMP_ARENA_MAX_BYTES", "1048576");
    EXPECT_EQ(support::arena_options_from_env().max_bytes, 1048576u);
}

// ---------------------------------------------------------------------
// WaveBuffer lifetime rules
// ---------------------------------------------------------------------

TEST(WaveBuffer, RoundTripsOperandsAndResults)
{
    camp::Rng rng(fuzz_seed(0x3a11));
    exec::WaveBuffer wave;
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 16; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 1 + rng.below(700)),
                           Natural::random_bits(rng, 1 + rng.below(700)));
    for (const auto& [a, b] : pairs) {
        const std::size_t item = wave.add(a, b);
        EXPECT_EQ(wave.operand_a(item), LimbView(a));
        EXPECT_EQ(wave.operand_b(item), LimbView(b));
    }
    exec::CpuDevice cpu;
    std::vector<std::size_t> items(pairs.size());
    std::vector<std::uint64_t> indices(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        items[i] = i;
        indices[i] = i;
    }
    const sim::BatchResult result =
        cpu.mul_batch_wave(wave, items, indices, 1);
    EXPECT_TRUE(result.products.empty());
    ASSERT_EQ(result.per_product.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(wave.take_result(i),
                  pairs[i].first * pairs[i].second)
            << "item " << i;
}

TEST(WaveBuffer, ZeroOperandsNeedNoResultStorage)
{
    exec::WaveBuffer wave;
    const Natural seven(7);
    const std::size_t z1 = wave.add(Natural(), seven);
    const std::size_t z2 = wave.add(seven, Natural());
    const std::size_t z3 = wave.add(Natural(), Natural());
    for (const std::size_t item : {z1, z2, z3}) {
        EXPECT_EQ(wave.result_ptr(item), nullptr);
        EXPECT_EQ(wave.result_capacity(item), 0u);
        wave.set_result_size(item, 0);
        EXPECT_TRUE(wave.take_result(item).is_zero());
    }
}

TEST(WaveBuffer, AliasedOperandsSquareCorrectly)
{
    camp::Rng rng(fuzz_seed(0xa11a5));
    exec::WaveBuffer wave;
    const Natural a = Natural::random_bits(rng, 900);
    const std::size_t item = wave.add(a, a);
    exec::CpuDevice cpu;
    cpu.mul_batch_wave(wave, {item}, {0}, 1);
    EXPECT_EQ(wave.take_result(item), a * a);
}

TEST(WaveBuffer, ResetRecyclesSegmentsAndBumpsGeneration)
{
    camp::Rng rng(fuzz_seed(0x5e9));
    exec::WaveBuffer wave;
    const std::uint64_t generation = wave.generation();
    for (int i = 0; i < 8; ++i)
        wave.add(Natural::random_bits(rng, 512),
                 Natural::random_bits(rng, 512));
    const std::size_t warm = wave.capacity_words();
    EXPECT_GT(warm, 0u);
    wave.reset();
    EXPECT_EQ(wave.size(), 0u);
    EXPECT_EQ(wave.generation(), generation + 1);
    // Same-shape refill reuses the warm segments: no capacity growth.
    for (int i = 0; i < 8; ++i)
        wave.add(Natural::random_bits(rng, 512),
                 Natural::random_bits(rng, 512));
    EXPECT_EQ(wave.capacity_words(), warm);
}

TEST(WaveBuffer, ReleaseReturnsStorageAndStaysUsable)
{
    camp::Rng rng(fuzz_seed(0x9e1ea5e));
    LimbArena arena;
    exec::WaveBuffer wave(arena);
    wave.add(Natural::random_bits(rng, 2048),
             Natural::random_bits(rng, 2048));
    EXPECT_GT(wave.capacity_words(), 0u);
    EXPECT_GT(arena.stats().live_bytes, 0u);
    wave.release();
    EXPECT_EQ(wave.capacity_words(), 0u);
    EXPECT_EQ(arena.stats().live_bytes, 0u);
    // A released buffer re-acquires on the next wave.
    const std::size_t item = wave.add(Natural(3), Natural(5));
    exec::CpuDevice cpu;
    cpu.mul_batch_wave(wave, {item}, {0}, 1);
    EXPECT_EQ(wave.take_result(item), Natural(15));
}

TEST(WaveBuffer, SteadyStateWaveExecutionAllocatesNoProductBuffers)
{
    camp::Rng rng(fuzz_seed(0xa110c));
    exec::CpuDevice cpu;
    exec::WaveBuffer wave;
    std::vector<std::size_t> items;
    std::vector<std::uint64_t> indices;
    for (int round = 0; round < 3; ++round) {
        items.clear();
        indices.clear();
        for (int i = 0; i < 64; ++i) {
            items.push_back(
                wave.add(Natural::random_bits(rng, 2048),
                         Natural::random_bits(rng, 2048)));
            indices.push_back(static_cast<std::uint64_t>(i));
        }
        const std::uint64_t before =
            metrics::counter("mpn.alloc.count").value();
        cpu.mul_batch_wave(wave, items, indices);
        // The whole point of the memory plane: executing a wave
        // performs zero product-buffer allocations (the copying path
        // pays one per product).
        EXPECT_EQ(metrics::counter("mpn.alloc.count").value(), before);
        wave.reset();
    }
}

// ---------------------------------------------------------------------
// Queue delivery path
// ---------------------------------------------------------------------

TEST(MemoryPlaneQueue, PooledWavesResolveExactProducts)
{
    camp::Rng rng(fuzz_seed(0x90b5));
    exec::CpuDevice cpu;
    exec::SubmitQueue queue(cpu);
    for (int round = 0; round < 4; ++round) {
        std::vector<std::pair<Natural, Natural>> pairs;
        std::vector<exec::SubmitQueue::Future> futures;
        for (int i = 0; i < 12; ++i) {
            pairs.emplace_back(
                Natural::random_bits(rng, 1 + rng.below(1024)),
                Natural::random_bits(rng, 1 + rng.below(1024)));
            futures.push_back(
                queue.submit(pairs.back().first, pairs.back().second));
        }
        queue.flush();
        for (std::size_t i = 0; i < futures.size(); ++i)
            EXPECT_EQ(futures[i].get(),
                      pairs[i].first * pairs[i].second);
    }
    EXPECT_EQ(queue.stats().flushes, 4u);
}

// ---------------------------------------------------------------------
// Differential lifetime/aliasing fuzz: wave path vs independent oracles
// ---------------------------------------------------------------------

namespace {

/** What a backend's wave accounting is checked against (products are
 * always checked against the mpn product). */
enum class Accounting
{
    None,     ///< host products: no simulated accounting
    Engine,   ///< sim::BatchEngine over the same pairs and seed indices
    Analytic, ///< sim::AnalyticModel::multiply_stats per product
};

struct FuzzBackend
{
    const char* name;
    std::unique_ptr<exec::Device> device;
    Accounting accounting;
};

std::vector<FuzzBackend>
fuzz_backends()
{
    std::vector<FuzzBackend> backends;
    backends.push_back(
        {"cpu", std::make_unique<exec::CpuDevice>(), Accounting::None});
    backends.push_back(
        {"sim", std::make_unique<exec::SimDevice>(), Accounting::Engine});
    backends.push_back({"analytic",
                        std::make_unique<exec::AnalyticDevice>(),
                        Accounting::Analytic});
    backends.push_back(
        {"breaker_cpu",
         std::make_unique<camp::serve::BreakerDevice>(
             std::make_unique<exec::CpuDevice>(),
             camp::serve::BreakerPolicy{}),
         Accounting::None});
    backends.push_back(
        {"sharded1",
         std::make_unique<exec::ShardedScheduler>(sim::default_config(),
                                                  never_drain(1)),
         Accounting::Engine});
    backends.push_back(
        {"sharded4",
         std::make_unique<exec::ShardedScheduler>(sim::default_config(),
                                                  never_drain(4)),
         Accounting::Engine});
    return backends;
}

/** One random wave mixing the aliasing/lifetime shapes: zero and
 * one-limb operands, self-aliased squares, duplicated pairs, and a
 * spread of widths. */
std::vector<std::pair<Natural, Natural>>
random_wave(camp::Rng& rng)
{
    const std::size_t count = 1 + rng.below(6);
    std::vector<std::pair<Natural, Natural>> pairs;
    pairs.reserve(count + 1);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t shape = rng.below(100);
        if (shape < 8) {
            pairs.emplace_back(Natural(),
                               Natural::random_bits(rng, 200));
            continue;
        }
        if (shape < 16) {
            const Natural a =
                Natural::random_bits(rng, 1 + rng.below(1200));
            pairs.emplace_back(a, a); // aliased square
            continue;
        }
        std::uint64_t bits_a = 1 + rng.below(1536);
        std::uint64_t bits_b = 1 + rng.below(1536);
        if (shape < 24)
            bits_a = 1 + rng.below(64); // one-limb operand
        pairs.emplace_back(Natural::random_bits(rng, bits_a),
                           Natural::random_bits(rng, bits_b));
    }
    if (pairs.size() > 1 && rng.below(3) == 0)
        pairs.push_back(pairs.front()); // duplicated pair
    return pairs;
}

} // namespace

TEST(MemoryPlaneFuzz, WavePathBitIdenticalToCopyingPathAllBackends)
{
    const std::uint64_t seed = fuzz_seed(0x77aef1ull);
    for (FuzzBackend& backend : fuzz_backends()) {
        SCOPED_TRACE(std::string("backend=") + backend.name +
                     " seed=" + std::to_string(seed));
        camp::Rng rng(seed);
        // Several live wave buffers: waves interleave construction,
        // reuse, and early release without disturbing each other.
        constexpr std::size_t kWaves = 3;
        exec::WaveBuffer waves[kWaves];
        for (int iter = 0; iter < 250; ++iter) {
            exec::WaveBuffer& wave = waves[iter % kWaves];
            const auto pairs = random_wave(rng);
            std::vector<std::size_t> items;
            std::vector<std::uint64_t> indices;
            items.reserve(pairs.size());
            indices.reserve(pairs.size());
            for (const auto& [a, b] : pairs)
                items.push_back(wave.add(a, b));
            // Wave-global fault-seed indices: occasionally offset to
            // prove index plumbing (fault-free config: accounting
            // only, but the plumbing must agree between paths).
            const std::uint64_t base = rng.below(1000);
            for (std::size_t i = 0; i < pairs.size(); ++i)
                indices.push_back(base + i);
            const unsigned parallelism =
                rng.below(2) == 0 ? 0u : 1u;

            const sim::BatchResult got = backend.device->mul_batch_wave(
                wave, items, indices, parallelism);

            // Independent accounting reference for this backend.
            sim::BatchResult ref;
            if (backend.accounting == Accounting::Engine) {
                ref = sim::BatchEngine(sim::default_config(), true)
                          .multiply_batch(pairs, parallelism, &indices);
            } else {
                ref.per_product.resize(pairs.size());
                if (backend.accounting == Accounting::Analytic) {
                    const sim::AnalyticModel model(sim::default_config());
                    for (std::size_t i = 0; i < pairs.size(); ++i) {
                        const auto& [a, b] = pairs[i];
                        if (a.is_zero() || b.is_zero())
                            continue;
                        const sim::CoreStats per =
                            model.multiply_stats(a.bits(), b.bits());
                        ref.per_product[i].tasks = per.tasks;
                        ref.per_product[i].bytes = per.bytes;
                        ref.tasks += per.tasks;
                    }
                }
            }

            EXPECT_TRUE(got.products.empty());
            ASSERT_EQ(got.per_product.size(), pairs.size());
            for (std::size_t i = 0; i < pairs.size(); ++i) {
                const Natural golden = pairs[i].first * pairs[i].second;
                EXPECT_EQ(wave.result(items[i]), LimbView(golden))
                    << "iter " << iter << " item " << i;
                EXPECT_TRUE(got.per_product[i] == ref.per_product[i])
                    << "iter " << iter << " item " << i;
            }
            if (backend.accounting != Accounting::None) {
                EXPECT_EQ(got.tasks, ref.tasks);
            }
            EXPECT_EQ(got.faulty, ref.faulty);

            // Lifetime interleave: recycle, early-release, or keep the
            // buffer warm for the next round-robin pass.
            const std::uint64_t fate = rng.below(10);
            if (fate < 7)
                wave.reset();
            else if (fate < 9)
                wave.release();
            else {
                wave.reset();
                // Early release of a *different* live buffer: wave
                // lifetimes are independent.
                waves[(iter + 1) % kWaves].release();
            }
        }
    }
}

TEST(MemoryPlaneFuzz, SchedulerWaveRedistributionRecoversExactly)
{
    // One shard's batch fabric dies mid-wave: the scheduler drains it
    // and recovers every product into the wave exactly.
    const std::uint64_t seed = fuzz_seed(0xd7a1d);
    camp::Rng rng(seed);

    class ThrowingBatchDevice : public exec::Device
    {
      public:
        const char* name() const override { return "throwing"; }
        exec::DeviceKind kind() const override
        {
            return exec::DeviceKind::Accelerator;
        }
        std::uint64_t base_cap_bits() const override { return 0; }
        exec::MulOutcome mul(const Natural& a,
                             const Natural& b) override
        {
            return exec::MulOutcome{a * b, 0};
        }
        sim::BatchResult
        mul_batch_wave(exec::WaveBuffer&, const std::vector<std::size_t>&,
                       const std::vector<std::uint64_t>&,
                       unsigned) override
        {
            throw camp::HardwareFault("batch fabric offline");
        }
        exec::CostEstimate cost(std::uint64_t,
                                std::uint64_t) const override
        {
            return {};
        }
    };

    std::vector<std::unique_ptr<exec::Device>> devices;
    devices.push_back(std::make_unique<exec::CpuDevice>());
    devices.push_back(std::make_unique<ThrowingBatchDevice>());
    exec::ShardPolicy policy;
    exec::ShardedScheduler scheduler(std::move(devices), policy);

    exec::WaveBuffer wave;
    std::vector<std::pair<Natural, Natural>> pairs;
    std::vector<std::size_t> items;
    std::vector<std::uint64_t> indices;
    for (int i = 0; i < 24; ++i) {
        pairs.emplace_back(
            Natural::random_bits(rng, 1 + rng.below(1024)),
            Natural::random_bits(rng, 1 + rng.below(1024)));
        items.push_back(wave.add(pairs.back().first,
                                 pairs.back().second));
        indices.push_back(static_cast<std::uint64_t>(i));
    }
    scheduler.mul_batch_wave(wave, items, indices);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(wave.take_result(items[i]),
                  pairs[i].first * pairs[i].second)
            << "item " << i;
    // The sick shard drained; the survivor carries the next wave.
    EXPECT_EQ(scheduler.alive_count(), 1u);
    EXPECT_GE(scheduler.stats().redistributed, 1u);
    wave.reset();
    const std::size_t item = wave.add(pairs[0].first, pairs[0].second);
    scheduler.mul_batch_wave(wave, {item}, {0});
    EXPECT_EQ(wave.take_result(item),
              pairs[0].first * pairs[0].second);
}
