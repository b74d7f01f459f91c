/**
 * @file
 * Fault-tolerance ablation: what does self-checking cost, and what
 * does recovery cost once faults really strike?
 *
 * Part 1 sweeps the golden-model check sampling rate with injection
 * disabled — the pure overhead of cross-checking hardware base
 * products against mpn (the price of confidence on a healthy part).
 * Part 2 arms increasing per-site fault rates with full checking and
 * reports the detect/retry/fallback traffic plus the wall-time cost
 * of recovering to a bit-exact product.
 */
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "mpapca/runtime.hpp"
#include "mpn/natural.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using camp::FaultSite;
using camp::Table;
using camp::mpn::Natural;
using namespace camp::mpapca;
namespace sim = camp::sim;

int
main()
{
    camp::Rng rng(42);
    const std::uint64_t bits = 300000; // Toom-3 + Karatsuba territory
    const Natural a = Natural::random_bits(rng, bits);
    const Natural b = Natural::random_bits(rng, bits - 1000);

    camp::bench::section(
        "self-check overhead: golden-model sampling sweep, faults off");
    Table overhead({"sample rate", "s/op", "overhead", "base products",
                    "checked"});
    double baseline = 0;
    for (const double rate : {0.0, 0.25, 0.5, 1.0}) {
        SelfCheckPolicy policy;
        policy.enabled = rate > 0;
        policy.sample_rate = rate;
        Runtime runtime("sim", sim::default_config(), policy);
        const double seconds = camp::bench::time_call(
            [&] { (void)runtime.mul_functional(a, b); }, 0.2);
        if (rate == 0.0)
            baseline = seconds;
        overhead.add_row(
            {Table::fmt(rate, 2), Table::fmt(seconds),
             Table::fmt(seconds / baseline, 3) + "x",
             std::to_string(runtime.base_products()),
             std::to_string(runtime.fault_stats().checks)});
    }
    overhead.print();
    std::printf("\neach sampled base product is re-run on the mpn "
                "golden model; because the functional Core emulation "
                "dominates the wall time, even full checking stays "
                "within a few percent here, and sampling scales the "
                "coverage/overhead trade linearly.\n");

    camp::bench::section(
        "recovery cost under injection (full checking, retry budget 2)");
    Table recovery({"ipu fault rate", "s/op", "injected", "detected",
                    "retried", "fallbacks"});
    for (const double rate : {1e-6, 1e-5, 1e-4}) {
        sim::SimConfig config;
        config.faults.seed = 90;
        config.faults.rate_at(FaultSite::IpuAccumulator) = rate;
        Runtime runtime("sim", config);
        const double seconds = camp::bench::time_call(
            [&] { (void)runtime.mul_functional(a, b); }, 0.2);
        const FaultStats& stats = runtime.fault_stats();
        char rate_str[32];
        std::snprintf(rate_str, sizeof rate_str, "%.0e", rate);
        recovery.add_row({rate_str, Table::fmt(seconds),
                          std::to_string(stats.injected),
                          std::to_string(stats.detected),
                          std::to_string(stats.retried),
                          std::to_string(stats.fallbacks)});
    }
    recovery.print();
    std::printf("\nat low rates retries absorb almost every fault; as "
                "the rate climbs, retries start failing too and the "
                "runtime degrades to the exact CPU path — correctness "
                "is constant, only the recovery cost moves.\n");
    return 0;
}
