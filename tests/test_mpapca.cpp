/**
 * @file
 * MPApca runtime tests: cost-model structure (regimes, monotonicity,
 * calibration points), ledger accounting with nesting guards, backend
 * dispatch, and the functional decomposition path over the simulated
 * hardware.
 */
#include <gtest/gtest.h>

#include "mpapca/cost_model.hpp"
#include "mpapca/ledger.hpp"
#include "mpapca/runtime.hpp"
#include "mpn/natural.hpp"
#include "support/rng.hpp"

using namespace camp::mpapca;
using camp::mpn::Natural;
using camp::mpn::OpKind;

TEST(CostModel, AlgorithmRegimes)
{
    // Selection is cost based: the monolithic range is fixed, fast
    // algorithms must take over above it, and SSA must win eventually.
    const CostModel model;
    EXPECT_STREQ(model.mul_algorithm(4096), "monolithic");
    EXPECT_STREQ(model.mul_algorithm(35904), "monolithic");
    const std::string just_above = model.mul_algorithm(35905);
    EXPECT_NE(just_above, "monolithic");
    EXPECT_NE(just_above, "ssa");
    EXPECT_STREQ(model.mul_algorithm(64'000'000), "ssa");
}

TEST(CostModel, RegimeBoundariesAreOrdered)
{
    // Sweeping up in size, once SSA wins it keeps winning; Toom order
    // is non-decreasing before that.
    const CostModel model;
    bool seen_ssa = false;
    int max_toom = 0;
    for (std::uint64_t bits = 40000; bits <= (1ull << 27); bits *= 2) {
        const std::string algo = model.mul_algorithm(bits);
        if (algo == "ssa") {
            seen_ssa = true;
        } else {
            EXPECT_FALSE(seen_ssa) << bits << " " << algo;
            const int k = algo.back() - '0';
            EXPECT_GE(k, max_toom) << bits << " " << algo;
            max_toom = std::max(max_toom, k);
        }
    }
    EXPECT_TRUE(seen_ssa);
}

TEST(CostModel, Table3CalibrationPoint)
{
    const CostModel model;
    const Cost c = model.mul(4096, 4096);
    EXPECT_DOUBLE_EQ(c.cycles, 32.0);
    EXPECT_NEAR(model.seconds(c.cycles), 1.6e-8, 1e-12);
    EXPECT_GT(c.energy_j, 0);
}

TEST(CostModel, MulCostIsMonotoneInSize)
{
    const CostModel model;
    double prev = 0;
    for (std::uint64_t bits = 1024; bits <= (1ull << 26); bits *= 2) {
        const double cycles = model.mul(bits, bits).cycles;
        // Small sizes share the single-wave latency floor (one 32-cycle
        // wave covers everything up to 4096x4096).
        EXPECT_GE(cycles, prev) << bits;
        if (bits > 65536)
            EXPECT_GT(cycles, prev) << bits;
        prev = cycles;
    }
}

TEST(CostModel, SubquadraticAboveCap)
{
    // Above the monolithic range the software stack keeps the growth
    // subquadratic: quadrupling the size must cost < 16x.
    const CostModel model;
    const double c1 = model.mul(1ull << 21, 1ull << 21).cycles;
    const double c2 = model.mul(1ull << 23, 1ull << 23).cycles;
    EXPECT_LT(c2, 16.0 * c1);
    EXPECT_GT(c2, 3.0 * c1);
}

TEST(CostModel, DivAndSqrtCostMoreThanOneMul)
{
    const CostModel model;
    for (std::uint64_t bits : {10000ull, 1000000ull}) {
        const double m = model.mul(bits, bits).cycles;
        EXPECT_GT(model.div(2 * bits, bits).cycles, m);
        EXPECT_GT(model.sqrt(2 * bits).cycles, 0.5 * m);
    }
}

TEST(CostModel, UnbalancedBlockDecomposition)
{
    const CostModel model;
    // 100 blocks of cap x cap.
    const std::uint64_t cap = 35904;
    const double one = model.mul(cap, cap).cycles;
    const double blocks = model.mul(100 * cap, cap / 4).cycles;
    EXPECT_GT(blocks, one);
    const double balanced = model.mul(100 * cap, 100 * cap).cycles;
    EXPECT_GT(balanced, blocks);
}

TEST(Ledger, ChargesTopLevelOpsOnly)
{
    const CostModel model;
    Ledger ledger(model);
    {
        LedgerSession session(ledger);
        camp::Rng rng(121);
        const Natural a = Natural::random_bits(rng, 4096);
        const Natural b = Natural::random_bits(rng, 4096);
        const Natural c = a * b;
        (void)c;
        // gcd nests shifts/subs internally; only Gcd is charged.
        const Natural g = Natural::gcd(a, b);
        (void)g;
    }
    EXPECT_EQ(ledger.entry(OpKind::Mul).count, 1u);
    EXPECT_EQ(ledger.entry(OpKind::Gcd).count, 1u);
    EXPECT_EQ(ledger.entry(OpKind::Sub).count, 0u);
    EXPECT_EQ(ledger.entry(OpKind::Shift).count, 0u);
    EXPECT_DOUBLE_EQ(ledger.entry(OpKind::Mul).cost.cycles, 32.0);
    EXPECT_GT(ledger.total_energy_j(), 0.0);
}

TEST(Ledger, TableListsChargedOps)
{
    const CostModel model;
    Ledger ledger(model);
    {
        LedgerSession session(ledger);
        const Natural c = Natural(12345) * Natural(678);
        (void)c;
    }
    const std::string table = ledger.table("unit");
    EXPECT_NE(table.find("Mul"), std::string::npos);
    EXPECT_EQ(table.find("Div"), std::string::npos);
}

TEST(Runtime, CpuBackendMeasuresWallTime)
{
    Runtime runtime("cpu");
    camp::Rng rng(122);
    const Natural a = Natural::random_bits(rng, 60000);
    const Natural b = Natural::random_bits(rng, 60000);
    const AppReport report = runtime.run("cpu-mul", [&] {
        for (int i = 0; i < 20; ++i) {
            const Natural c = a * b;
            (void)c;
        }
    });
    EXPECT_GT(report.seconds, 0.0);
    EXPECT_GT(report.kernel_seconds, 0.0);
    EXPECT_GT(report.energy_j, 0.0);
    EXPECT_EQ(report.device, "cpu");
}

TEST(Runtime, CambriconBackendUsesSimulatedKernelTime)
{
    Runtime cpu("cpu");
    Runtime accel("sim");
    camp::Rng rng(123);
    const Natural a = Natural::random_bits(rng, 30000);
    const Natural b = Natural::random_bits(rng, 30000);
    auto workload = [&] {
        for (int i = 0; i < 10; ++i) {
            const Natural c = a * b;
            (void)c;
        }
    };
    const AppReport r_cpu = cpu.run("mul", workload);
    const AppReport r_acc = accel.run("mul", workload);
    // A 30k-bit multiplication takes ~5 waves = 160 cycles = 80 ns on
    // the accelerator vs microseconds on the host.
    EXPECT_LT(r_acc.kernel_seconds, r_cpu.kernel_seconds);
    EXPECT_GT(r_acc.kernel_seconds, 0.0);
}

TEST(Runtime, FunctionalMulMatchesReferenceWithinCap)
{
    Runtime runtime("sim");
    camp::Rng rng(124);
    const Natural a = Natural::random_bits(rng, 20000);
    const Natural b = Natural::random_bits(rng, 15000);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
    EXPECT_EQ(runtime.base_products(), 1u);
}

TEST(Runtime, FunctionalMulDecomposesOversizedOperands)
{
    Runtime runtime("sim");
    camp::Rng rng(125);
    // ~100k bits: needs two Karatsuba levels above the 35904-bit cap.
    const Natural a = Natural::random_bits(rng, 100000);
    const Natural b = Natural::random_bits(rng, 99000);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
    EXPECT_GT(runtime.base_products(), 3u);
}

TEST(Runtime, FunctionalMulBlockPathForSkinnyOperands)
{
    Runtime runtime("sim");
    camp::Rng rng(126);
    const Natural a = Natural::random_bits(rng, 200000);
    const Natural b = Natural::random_bits(rng, 5000);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
    EXPECT_GE(runtime.base_products(), 200000u / 35904);
}

TEST(Runtime, FunctionalToom3PathForLargeBalancedOperands)
{
    Runtime runtime("sim");
    camp::Rng rng(127);
    // > 6x the monolithic cap and balanced: routes through Toom-3.
    const Natural a = Natural::random_bits(rng, 260000);
    const Natural b = Natural::random_bits(rng, 250000);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
    EXPECT_GT(runtime.base_products(), 5u);
}

TEST(Runtime, FunctionalPathHandlesExtremeImbalance)
{
    Runtime runtime("sim");
    camp::Rng rng(128);
    const Natural a = Natural::random_bits(rng, 300000);
    const Natural b = Natural::random_bits(rng, 40);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
}

TEST(Runtime, MultiplyBatchFoldsIntoLedger)
{
    Runtime runtime("sim");
    camp::Rng rng(129);
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 12; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 1024),
                           Natural::random_bits(rng, 1024));
    const camp::sim::BatchResult result = runtime.multiply_batch(pairs);
    ASSERT_EQ(result.products.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(result.products[i], pairs[i].first * pairs[i].second);
    EXPECT_EQ(runtime.base_products(), pairs.size());
    // No injection armed: nothing may be counted as faulty.
    EXPECT_EQ(runtime.fault_stats().injected, 0u);
    EXPECT_EQ(runtime.fault_stats().detected, 0u);
}

TEST(Runtime, MultiplyBatchCountsInjectedFaults)
{
    camp::sim::SimConfig config = camp::sim::default_config();
    config.faults.seed = 77;
    config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.002;
    Runtime runtime("sim", config);
    camp::Rng rng(130);
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 24; ++i)
        pairs.emplace_back(Natural::random_bits(rng, 2048),
                           Natural::random_bits(rng, 2048));
    const camp::sim::BatchResult result = runtime.multiply_batch(pairs);
    EXPECT_GT(result.injected, 0u);
    EXPECT_EQ(runtime.fault_stats().injected, result.injected);
    EXPECT_EQ(runtime.fault_stats().detected, result.faulty);
    EXPECT_EQ(runtime.fault_stats().checks, pairs.size());
}
