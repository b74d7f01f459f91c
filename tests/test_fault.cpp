/**
 * @file
 * Fault injection and recovery: the FaultEngine is deterministic,
 * every hardware site actually corrupts results when armed, config
 * validation rejects non-buildable hardware, and — the headline — the
 * self-checking MPApca runtime returns bit-exact products under
 * injection at every site while the ledger accounts for every
 * detected fault (detected == retried + fallbacks, injected covers
 * detected).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "mpapca/runtime.hpp"
#include "mpn/natural.hpp"
#include "scoped_env.hpp"
#include "sim/analytic_model.hpp"
#include "sim/core.hpp"
#include "support/assert.hpp"
#include "support/errors.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

using camp::ConfigError;
using camp::FaultConfig;
using camp::FaultEngine;
using camp::FaultSite;
using camp::HardwareFault;
using camp::mpn::Natural;
using namespace camp::mpapca;
namespace sim = camp::sim;

namespace {

/** Nonzero rates at every site, scaled for per-task opportunities. */
sim::SimConfig
faulty_config(std::uint64_t seed)
{
    sim::SimConfig config;
    config.faults.seed = seed;
    config.faults.rate_at(FaultSite::IpuAccumulator) = 2e-5;
    config.faults.rate_at(FaultSite::ConverterPattern) = 2e-5;
    config.faults.rate_at(FaultSite::GatherCarry) = 0.1;
    config.faults.rate_at(FaultSite::MemoryTruncate) = 0.05;
    config.faults.rate_at(FaultSite::MemoryStall) = 0.05;
    return config;
}

} // namespace

TEST(FaultEngine, DeterministicInSeed)
{
    FaultConfig config;
    config.seed = 7;
    config.rate_at(FaultSite::IpuAccumulator) = 0.5;
    FaultEngine a(config), b(config);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.fire(FaultSite::IpuAccumulator),
                  b.fire(FaultSite::IpuAccumulator));
    EXPECT_EQ(a.total_injected(), b.total_injected());
    EXPECT_GT(a.total_injected(), 0u);
    EXPECT_LT(a.total_injected(), 200u);
}

TEST(FaultEngine, ZeroRateNeverFiresAndOneAlwaysFires)
{
    FaultConfig config;
    config.rate_at(FaultSite::GatherCarry) = 1.0;
    FaultEngine engine(config);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(engine.fire(FaultSite::IpuAccumulator));
        EXPECT_TRUE(engine.fire(FaultSite::GatherCarry));
    }
    EXPECT_EQ(engine.injected(FaultSite::IpuAccumulator), 0u);
    EXPECT_EQ(engine.injected(FaultSite::GatherCarry), 50u);
    EXPECT_EQ(engine.total_injected(), 50u);
}

TEST(FaultEngine, EnvOverridesConfig)
{
    ASSERT_EQ(setenv("CAMP_FAULT_SEED", "99", 1), 0);
    ASSERT_EQ(setenv("CAMP_FAULT_RATE", "0.25", 1), 0);
    ASSERT_EQ(setenv("CAMP_FAULT_GATHER", "0.75", 1), 0);
    const FaultConfig config = FaultConfig::from_env(FaultConfig{});
    unsetenv("CAMP_FAULT_SEED");
    unsetenv("CAMP_FAULT_RATE");
    unsetenv("CAMP_FAULT_GATHER");
    EXPECT_EQ(config.seed, 99u);
    EXPECT_DOUBLE_EQ(config.rate_at(FaultSite::IpuAccumulator), 0.25);
    EXPECT_DOUBLE_EQ(config.rate_at(FaultSite::GatherCarry), 0.75);
    EXPECT_TRUE(config.enabled());
    EXPECT_FALSE(FaultConfig::from_env(FaultConfig{}).enabled());
}

TEST(FaultEngine, SeedEnvRejectsJunkEmptyAndOverflow)
{
    // The parse used to be strtoull base 0: "012" read as octal 10,
    // "-1" wrapped to 2^64 - 1 and junk kept the default seed.
    const auto parse = [] { FaultConfig::from_env(FaultConfig{}); };
    expect_env_rejects("CAMP_FAULT_SEED",
                       {"", "abc", "12k", "-1", "+5", " 7", "0x", "0xg",
                        "1e3", "18446744073709551616"},
                       parse);
    const struct
    {
        const char* text;
        std::uint64_t seed;
    } ok[] = {{"012", 12},
              {"0x10", 16},
              {"18446744073709551615", 18446744073709551615ull}};
    for (const auto& c : ok) {
        const ScopedEnv env("CAMP_FAULT_SEED", c.text);
        EXPECT_EQ(FaultConfig::from_env(FaultConfig{}).seed, c.seed)
            << c.text;
    }
}

TEST(FaultEngine, RateEnvRejectsJunkEmptyAndTrailingCharacters)
{
    // A strtod prefix parse used to read "1e-4x" as 1e-4 and "x" as
    // "no override", so a typo silently turned faults off.
    const auto parse = [] { FaultConfig::from_env(FaultConfig{}); };
    // v = 0 is CAMP_FAULT_RATE (every site), v = 1.. the site variables.
    for (std::size_t v = 0; v <= camp::kFaultSiteCount; ++v) {
        const char* name =
            v == 0 ? "CAMP_FAULT_RATE" : camp::kFaultSiteVars[v - 1];
        expect_env_rejects(name,
                           {"", "abc", "1e-4x", "0.5 ", " 0.5", "0.1.2",
                            "inf", "-inf", "nan", "1e999", "0,5"},
                           parse);
        const ScopedEnv hex(name, "0x1p-3");
        const FaultConfig config = FaultConfig::from_env(FaultConfig{});
        for (std::size_t i = 0; i < camp::kFaultSiteCount; ++i)
            EXPECT_EQ(config.rate[i], v == 0 || v == i + 1 ? 0.125 : 0.0)
                << name << " site " << i;
    }
    // A well-formed rate outside [0, 1] still parses; validation then
    // rejects it as a ConfigError naming the site.
    for (const char* bad : {"1.5", "-0.1"}) {
        const ScopedEnv env("CAMP_FAULT_RATE", bad);
        EXPECT_THROW(sim::validated(sim::default_config()), ConfigError)
            << bad;
    }
}

TEST(FaultInjection, EverySiteCorruptsValidatedProducts)
{
    // Arm one site at a time with certainty-level rates; a validating
    // Core must detect the corruption as HardwareFault on at least one
    // of a handful of products (sites like GatherCarry can be masked
    // when the victim segment happens to carry nothing).
    struct Case
    {
        FaultSite site;
        double rate;
    };
    const Case cases[] = {
        {FaultSite::IpuAccumulator, 0.01},
        {FaultSite::ConverterPattern, 0.01},
        {FaultSite::GatherCarry, 1.0},
        {FaultSite::MemoryTruncate, 1.0},
    };
    for (const Case& c : cases) {
        sim::SimConfig config;
        config.faults.seed = 11;
        config.faults.rate_at(c.site) = c.rate;
        sim::Core core(config, sim::Fidelity::Fast, /*validate=*/true);
        camp::Rng rng(500 + static_cast<int>(c.site));
        int detections = 0;
        for (int round = 0; round < 5; ++round) {
            const Natural a = Natural::random_bits(rng, 8000);
            const Natural b = Natural::random_bits(rng, 8000);
            try {
                core.multiply(a, b);
            } catch (const HardwareFault&) {
                ++detections;
            }
        }
        ASSERT_NE(core.fault_engine(), nullptr);
        EXPECT_GT(core.fault_engine()->injected(c.site), 0u)
            << camp::fault_site_name(c.site);
        EXPECT_GT(detections, 0) << camp::fault_site_name(c.site);
    }
}

TEST(FaultInjection, BitSerialFidelityDetectsConverterAndIpuFaults)
{
    // The bit-serial datapath exercises the real Converter pattern
    // streams and serial accumulators, not the word-level emulation.
    for (const FaultSite site :
         {FaultSite::IpuAccumulator, FaultSite::ConverterPattern}) {
        sim::SimConfig config;
        config.faults.seed = 13;
        config.faults.rate_at(site) = 0.05;
        sim::Core core(config, sim::Fidelity::BitSerial,
                       /*validate=*/true);
        camp::Rng rng(600 + static_cast<int>(site));
        int detections = 0;
        for (int round = 0; round < 3; ++round) {
            const Natural a = Natural::random_bits(rng, 2000);
            const Natural b = Natural::random_bits(rng, 2000);
            try {
                core.multiply(a, b);
            } catch (const HardwareFault&) {
                ++detections;
            }
        }
        EXPECT_GT(core.fault_engine()->injected(site), 0u)
            << camp::fault_site_name(site);
        EXPECT_GT(detections, 0) << camp::fault_site_name(site);
    }
}

TEST(FaultInjection, MemoryStallCostsCyclesButStaysExact)
{
    sim::SimConfig config;
    config.faults.seed = 17;
    config.faults.rate_at(FaultSite::MemoryStall) = 1.0;
    sim::Core faulty(config, sim::Fidelity::Fast, /*validate=*/true);
    sim::Core clean;
    camp::Rng rng(700);
    const Natural a = Natural::random_bits(rng, 20000);
    const Natural b = Natural::random_bits(rng, 20000);
    const auto slow = faulty.multiply(a, b); // exact: stalls only delay
    const auto fast = clean.multiply(a, b);
    EXPECT_EQ(slow.product, a * b);
    EXPECT_GT(slow.stats.memory_cycles, fast.stats.memory_cycles);
    EXPECT_EQ(slow.stats.bytes, fast.stats.bytes);
}

TEST(FaultInjection, DisabledFaultsChangeNothing)
{
    // Default config: no engine, and cycle accounting still matches
    // the calibrated analytic model exactly.
    sim::Core core;
    EXPECT_EQ(core.fault_engine(), nullptr);
    const sim::AnalyticModel model(core.config());
    camp::Rng rng(800);
    for (const std::uint64_t bits : {900ull, 9000ull, 30000ull}) {
        const Natural a = Natural::random_bits(rng, bits);
        const Natural b = Natural::random_bits(rng, bits);
        const auto result = core.multiply(a, b);
        EXPECT_EQ(result.product, a * b);
        EXPECT_EQ(result.stats.cycles, model.multiply_cycles(bits, bits))
            << bits;
    }
}

TEST(ConfigValidation, RejectsNonBuildableHardware)
{
    const auto expect_rejected = [](auto mutate) {
        sim::SimConfig config;
        mutate(config);
        EXPECT_THROW(sim::validate(config), ConfigError);
        EXPECT_THROW(sim::Core{config}, ConfigError);
        EXPECT_THROW(Runtime("sim", config), ConfigError);
    };
    expect_rejected([](sim::SimConfig& c) { c.n_pe = 0; });
    expect_rejected([](sim::SimConfig& c) { c.n_ipu = 0; });
    expect_rejected([](sim::SimConfig& c) {
        c.n_pe = 1u << 20;
        c.n_ipu = 1u << 20; // n_pe * n_ipu overflows unsigned
    });
    expect_rejected([](sim::SimConfig& c) { c.limb_bits = 16; });
    expect_rejected([](sim::SimConfig& c) { c.q = 5; });
    expect_rejected([](sim::SimConfig& c) { c.freq_ghz = 0; });
    expect_rejected([](sim::SimConfig& c) { c.llc_gbps = 0; });
    expect_rejected([](sim::SimConfig& c) { c.ma_duty = 0; });
    expect_rejected([](sim::SimConfig& c) { c.ma_duty = 1.5; });
    expect_rejected([](sim::SimConfig& c) { c.monolithic_cap_bits = 0; });
    expect_rejected([](sim::SimConfig& c) {
        c.faults.rate_at(FaultSite::GatherCarry) = 1.5;
    });
    EXPECT_NO_THROW(sim::validate(sim::default_config()));
}

TEST(SelfCheck, ExactProductsAndConsistentLedgerAcrossSeeds)
{
    // The acceptance scenario: nonzero rates at every site, operands
    // beyond 64K bits, three fixed seeds. mul_functional must stay
    // bit-exact and the ledger must account for every detected fault.
    for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
        Runtime runtime("sim", faulty_config(seed));
        EXPECT_TRUE(runtime.self_check().enabled);
        camp::Rng rng(900 + seed);
        for (const std::uint64_t bits : {20000ull, 70000ull}) {
            const Natural a = Natural::random_bits(rng, bits);
            const Natural b = Natural::random_bits(rng, bits - 500);
            EXPECT_EQ(runtime.mul_functional(a, b), a * b)
                << "seed " << seed << " bits " << bits;
        }
        const FaultStats& stats = runtime.fault_stats();
        EXPECT_EQ(stats.checks, runtime.base_products())
            << "full sampling checks every base product";
        EXPECT_GT(stats.injected, 0u) << "seed " << seed;
        EXPECT_GT(stats.detected, 0u) << "seed " << seed;
        EXPECT_EQ(stats.detected, stats.retried + stats.fallbacks)
            << "every detected fault resolves to a retry or a fallback";
        EXPECT_GE(stats.injected, stats.detected)
            << "detections cannot outnumber injections";
        EXPECT_FALSE(runtime.ledger().fault_diagnostics().empty());
    }
}

TEST(SelfCheck, ExhaustedRetryBudgetFallsBackToCpu)
{
    // Certain corruption on every gather: retries can never succeed,
    // so every checked base product must degrade to the CPU path and
    // still return the exact product.
    sim::SimConfig config;
    config.faults.seed = 31;
    config.faults.rate_at(FaultSite::MemoryTruncate) = 1.0;
    SelfCheckPolicy policy;
    policy.enabled = true;
    policy.retry_budget = 1;
    Runtime runtime("sim", config, policy);
    camp::Rng rng(1000);
    const Natural a = Natural::random_bits(rng, 120000);
    const Natural b = Natural::random_bits(rng, 110000);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
    const FaultStats& stats = runtime.fault_stats();
    EXPECT_GT(stats.fallbacks, 0u);
    EXPECT_EQ(stats.fallbacks, runtime.base_products())
        << "every base product needed the CPU fallback";
    EXPECT_EQ(stats.retried,
              stats.checks * runtime.self_check().retry_budget);
    EXPECT_EQ(stats.detected, stats.retried + stats.fallbacks);
}

TEST(SelfCheck, SampledCheckingWithoutFaultsIsFreeOfDetections)
{
    SelfCheckPolicy policy;
    policy.enabled = true;
    policy.sample_rate = 0.5;
    Runtime runtime("sim", sim::default_config(), policy);
    camp::Rng rng(1100);
    const Natural a = Natural::random_bits(rng, 150000);
    const Natural b = Natural::random_bits(rng, 140000);
    EXPECT_EQ(runtime.mul_functional(a, b), a * b);
    const FaultStats& stats = runtime.fault_stats();
    EXPECT_GT(stats.checks, 0u);
    EXPECT_LT(stats.checks, runtime.base_products());
    EXPECT_EQ(stats.detected, 0u);
    EXPECT_EQ(stats.injected, 0u);
}

TEST(SelfCheck, ReportCarriesFaultCounters)
{
    Runtime runtime("sim", faulty_config(41));
    camp::Rng rng(1200);
    const Natural a = Natural::random_bits(rng, 50000);
    const Natural b = Natural::random_bits(rng, 50000);
    const AppReport report = runtime.run("faulty-mul", [&] {
        const Natural c = runtime.mul_functional(a, b);
        CAMP_ASSERT(c == a * b);
    });
    EXPECT_GT(report.faults.checks, 0u);
    EXPECT_EQ(report.faults.detected,
              report.faults.retried + report.faults.fallbacks);
    const std::string table = runtime.ledger().table("faulty-mul");
    EXPECT_NE(table.find("faults:"), std::string::npos);
}
