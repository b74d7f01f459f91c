/**
 * @file
 * Batch-engine tests: product correctness across batch shapes, wave
 * accounting vs pooled capacity, amortized-time behaviour, and the
 * host-parallelism contract — a pooled batch is bit-identical to a
 * serial one (results and aggregate accounting), and the per-product
 * fault streams replay deterministically per seed at any parallelism.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "fuzz_seed.hpp"
#include "sim/analytic_model.hpp"
#include "sim/batch.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

using namespace camp::sim;
using camp::mpn::Natural;

namespace {

std::vector<std::pair<Natural, Natural>>
random_batch(camp::Rng& rng, std::size_t count, std::uint64_t max_bits)
{
    std::vector<std::pair<Natural, Natural>> pairs;
    pairs.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        pairs.emplace_back(
            Natural::random_bits(rng, 32 + rng.below(max_bits - 32)),
            Natural::random_bits(rng, 32 + rng.below(max_bits - 32)));
    return pairs;
}

} // namespace

TEST(BatchEngine, ProductsMatchReference)
{
    BatchEngine engine;
    camp::Rng rng(150);
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 20; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 64 + rng.below(2000)),
                           Natural::random_bits(rng, 64 + rng.below(2000)));
    const BatchResult result = engine.multiply_batch(pairs);
    ASSERT_EQ(result.products.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(result.products[i],
                  pairs[i].first * pairs[i].second);
}

TEST(BatchEngine, ZeroOperandsYieldZeroProducts)
{
    BatchEngine engine;
    camp::Rng rng(151);
    std::vector<std::pair<Natural, Natural>> pairs;
    pairs.emplace_back(Natural(), Natural(5));
    pairs.emplace_back(Natural::random_bits(rng, 100), Natural());
    const BatchResult result = engine.multiply_batch(pairs);
    EXPECT_TRUE(result.products[0].is_zero());
    EXPECT_TRUE(result.products[1].is_zero());
}

TEST(BatchEngine, WavesScaleWithBatchSize)
{
    BatchEngine engine(default_config(), /*validate=*/false);
    camp::Rng rng(152);
    auto make_batch = [&](std::size_t count) {
        std::vector<std::pair<Natural, Natural>> pairs;
        for (std::size_t i = 0; i < count; ++i)
            pairs.emplace_back(Natural::random_bits(rng, 1024),
                               Natural::random_bits(rng, 1024));
        return pairs;
    };
    const BatchResult small = engine.multiply_batch(make_batch(8));
    const BatchResult big = engine.multiply_batch(make_batch(512));
    EXPECT_GT(big.tasks, 32 * small.tasks);
    EXPECT_GE(big.waves, small.waves);
    // Amortized time improves with batch size until capacity saturates.
    EXPECT_LE(big.amortized_seconds(default_config()),
              small.amortized_seconds(default_config()) + 1e-12);
}

TEST(BatchEngine, TaskAndWaveAccountingMatchesModel)
{
    BatchEngine engine(default_config(), /*validate=*/false);
    camp::Rng rng(153);
    const std::size_t batch = 96;
    std::vector<std::pair<Natural, Natural>> pairs;
    for (std::size_t i = 0; i < batch; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 1024),
                           Natural::random_bits(rng, 1024));
    const BatchResult result = engine.multiply_batch(pairs);
    // Independent products pool tasks over the whole fabric.
    const camp::sim::AnalyticModel model;
    const auto per_product = model.multiply_counts(32, 32); // 1024 bits
    EXPECT_EQ(result.tasks, batch * per_product.tasks);
    const std::uint64_t expect_waves =
        (result.tasks + default_config().total_ipus() - 1) /
        default_config().total_ipus();
    EXPECT_EQ(result.waves, expect_waves);
}

TEST(BatchEngine, PooledBatchBitIdenticalToSerial)
{
    // The host-parallelism determinism contract: products and every
    // aggregate counter match the serial run exactly, at any pool
    // size (CI runs this at CAMP_THREADS=1 and 4).
    const std::uint64_t seed = fuzz_seed(0xba7c4ull);
    camp::Rng rng(seed);
    BatchEngine engine;
    for (int round = 0; round < 6; ++round) {
        const auto pairs = random_batch(rng, 3 + rng.below(60), 3000);
        const BatchResult serial = engine.multiply_batch(pairs, 1);
        const BatchResult pooled = engine.multiply_batch(pairs, 0);
        EXPECT_EQ(serial.parallelism, 1u);
        ASSERT_EQ(pooled.products, serial.products)
            << "round=" << round << " CAMP_FUZZ_SEED=" << seed;
        EXPECT_EQ(pooled.tasks, serial.tasks);
        EXPECT_EQ(pooled.waves, serial.waves);
        EXPECT_EQ(pooled.bytes, serial.bytes);
        EXPECT_EQ(pooled.cycles, serial.cycles);
    }
}

TEST(BatchEngine, PerProductStatsDeterministicWithTracing)
{
    // Observability must not perturb the simulation: with the tracing
    // layer force-enabled (spans recording into the ring from every
    // worker), a pooled batch still reports *per-product* task, byte,
    // stall-cycle, and fault counters identical to the serial run —
    // element-wise via BatchResult::per_product, not just in
    // aggregate. CI runs this at CAMP_THREADS=1 and 4, covering both
    // pool widths; faults are armed so injected/faulty are nonzero.
    namespace trace = camp::support::trace;
    const bool was_enabled = trace::enabled();
    trace::set_enabled(true);
    const std::uint64_t seed = fuzz_seed(0xde7e2717ull);
    camp::Rng rng(seed);

    SimConfig config = default_config();
    config.faults.seed = seed;
    config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.002;
    BatchEngine engine(config, /*validate=*/true);
    std::uint64_t total_injected = 0;
    for (int round = 0; round < 4; ++round) {
        const auto pairs = random_batch(rng, 4 + rng.below(48), 2500);
        const BatchResult serial = engine.multiply_batch(pairs, 1);
        const BatchResult pooled = engine.multiply_batch(pairs, 0);
        ASSERT_EQ(serial.per_product.size(), pairs.size());
        ASSERT_EQ(pooled.per_product.size(), pairs.size());
        ASSERT_EQ(pooled.products, serial.products)
            << "round=" << round << " CAMP_FUZZ_SEED=" << seed;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            const BatchProductStats& s = serial.per_product[i];
            const BatchProductStats& p = pooled.per_product[i];
            EXPECT_TRUE(s == p)
                << "round=" << round << " product=" << i
                << " serial{tasks=" << s.tasks << " bytes=" << s.bytes
                << " stalls=" << s.stall_cycles
                << " injected=" << s.injected << " faulty=" << s.faulty
                << "} pooled{tasks=" << p.tasks << " bytes=" << p.bytes
                << " stalls=" << p.stall_cycles
                << " injected=" << p.injected << " faulty=" << p.faulty
                << "} CAMP_FUZZ_SEED=" << seed;
            total_injected += s.injected;
        }
        // The aggregate counters are the fold of per_product.
        std::uint64_t tasks = 0, injected = 0, faulty = 0;
        for (const BatchProductStats& s : serial.per_product) {
            tasks += s.tasks;
            injected += s.injected;
            faulty += s.faulty ? 1 : 0;
        }
        EXPECT_EQ(tasks, serial.tasks);
        EXPECT_EQ(injected, serial.injected);
        EXPECT_EQ(faulty, serial.faulty);
    }
    // Rates are chosen so the armed counters actually move.
    EXPECT_GT(total_injected, 0u);
    trace::set_enabled(was_enabled);
}

TEST(BatchEngine, SerialGuardSuppressesForking)
{
    BatchEngine engine;
    camp::Rng rng(154);
    const auto pairs = random_batch(rng, 8, 1024);
    camp::support::SerialGuard guard;
    const BatchResult result = engine.multiply_batch(pairs, 0);
    EXPECT_EQ(result.parallelism, 1u);
}

TEST(BatchEngine, FaultStreamsReplayPerSeedAtAnyParallelism)
{
    // Product i's fault stream is seeded faults.seed + i, so an armed
    // batch corrupts *identically* serial vs pooled, run after run —
    // PR-1's replayable-injection property survives the thread pool.
    SimConfig config = default_config();
    config.faults.seed = 0xdeadfa17ull;
    config.faults.rate_at(camp::FaultSite::IpuAccumulator) =
        0.002;
    config.faults.rate_at(camp::FaultSite::GatherCarry) = 0.01;
    BatchEngine engine(config, /*validate=*/true);
    camp::Rng rng(fuzz_seed(0xfa177ull));
    const auto pairs = random_batch(rng, 48, 2048);

    const BatchResult serial = engine.multiply_batch(pairs, 1);
    const BatchResult pooled = engine.multiply_batch(pairs, 0);
    const BatchResult replay = engine.multiply_batch(pairs, 0);
    // Deterministic corruption: the faulty products are byte-equal.
    ASSERT_EQ(pooled.products, serial.products);
    ASSERT_EQ(replay.products, serial.products);
    EXPECT_EQ(pooled.injected, serial.injected);
    EXPECT_EQ(pooled.faulty, serial.faulty);
    EXPECT_GT(serial.injected, 0u);
    // Injection really corrupted something (rates chosen to fire).
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i)
        if (serial.products[i] != pairs[i].first * pairs[i].second)
            ++mismatches;
    EXPECT_EQ(mismatches, serial.faulty);
}

TEST(BatchEngine, FaultSeedSelectsDifferentStreams)
{
    SimConfig config = default_config();
    config.faults.rate_at(camp::FaultSite::IpuAccumulator) =
        0.005;
    camp::Rng rng(155);
    const auto pairs = random_batch(rng, 32, 2048);
    config.faults.seed = 1;
    const BatchResult one =
        BatchEngine(config, true).multiply_batch(pairs);
    config.faults.seed = 2;
    const BatchResult two =
        BatchEngine(config, true).multiply_batch(pairs);
    // Different seeds, different injected sequences (overwhelmingly).
    EXPECT_NE(one.products, two.products);
}

#include "sim/stream_sim.hpp"

TEST(StreamingSimulator, ComputeBoundShapeHidesStreaming)
{
    // 35904x35904: compute bound; double buffering must fully hide the
    // stream except for the initial fill.
    const StreamingSimulator streamer(default_config(), 2);
    const StreamStats stats = streamer.run_multiply(35904, 35904);
    const AnalyticModel model;
    const std::uint64_t analytic = model.multiply_cycles(35904, 35904);
    EXPECT_EQ(stats.stall_cycles, 0u);
    EXPECT_GE(stats.cycles, analytic);
    EXPECT_LE(stats.cycles, analytic + stats.fill_cycles + 32);
}

TEST(StreamingSimulator, MemoryBoundShapeStalls)
{
    // 35904x32: memory bound; the pipeline must stall roughly down to
    // the bandwidth bound regardless of buffering depth.
    const AnalyticModel model;
    const std::uint64_t analytic = model.multiply_cycles(35904, 32);
    const StreamingSimulator streamer(default_config(), 4);
    const StreamStats stats = streamer.run_multiply(35904, 32);
    EXPECT_GT(stats.stall_cycles + stats.fill_cycles, 0u);
    EXPECT_GE(stats.cycles, analytic);
    EXPECT_LE(stats.cycles, analytic + analytic / 4 + 64);
}

TEST(StreamingSimulator, DeeperBuffersNeverHurt)
{
    for (const auto [a, b] :
         {std::pair<std::uint64_t, std::uint64_t>{35904, 35904},
          std::pair<std::uint64_t, std::uint64_t>{35904, 512},
          std::pair<std::uint64_t, std::uint64_t>{20000, 4000}}) {
        std::uint64_t prev = ~0ull;
        for (const unsigned depth : {1u, 2u, 4u, 8u}) {
            const StreamingSimulator streamer(default_config(), depth);
            const StreamStats stats = streamer.run_multiply(a, b);
            EXPECT_LE(stats.cycles, prev) << a << "x" << b << " depth "
                                          << depth;
            prev = stats.cycles;
        }
    }
}

TEST(StreamingSimulator, ZeroOperandIsFree)
{
    const StreamingSimulator streamer;
    EXPECT_EQ(streamer.run_multiply(0, 100).cycles, 0u);
}
