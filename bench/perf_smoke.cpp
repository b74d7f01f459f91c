/**
 * @file
 * CI perf smoke (< 10 s): times the parallel paths added with the
 * thread pool — a large monolithic mpn multiplication and a
 * BatchEngine batch — serial (SerialGuard) vs pooled, plus an MPApca
 * decomposed multiplication (so a CAMP_TRACE run contains spans from
 * the mpn, sim, and mpapca layers), checks results are bit-identical,
 * and records machine-readable numbers in BENCH_perf_smoke.json. The
 * mpn_div_2n_1n row hard-asserts that a 2n-by-n division costs at most
 * 8 same-size multiplies, the mpn_sqr_64 row that a 64-limb square
 * costs at most 0.85 of the same product, and the wave_fork_small row
 * that a 2-product wave at parallelism 0 costs at most 1.2x its inline
 * run (the host fork rule, DESIGN.md §8).
 * Speedup tracks the host: on a single-core runner the pooled path is
 * expected near 1.0x and the JSON row is the honest record of that.
 *
 * The binary also measures the observability layer itself:
 *  - trace_off row: cost of a *disabled* trace::Span (the always-paid
 *    price) scaled by the spans-per-op of the 1-Mbit multiply, as a
 *    percentage of the op ("overhead_pct" extra; acceptance: < 2%);
 *  - trace_on row: the same multiply with tracing force-enabled.
 *
 * With CAMP_BENCH_GATE=1 the run exits nonzero when any op regresses
 * beyond CAMP_BENCH_TOLERANCE vs CAMP_BENCH_BASELINE (see bench_util
 * and ci/run_tests.sh; refresh workflow in README "Performance").
 */
#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exec/cpu_device.hpp"
#include "exec/wave.hpp"
#include "mpapca/runtime.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "mpn/view.hpp"
#include "mpn/kernels/kernels.hpp"
#include "mpn/natural.hpp"
#include "mpz/integer.hpp"
#include "sim/batch.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

using camp::mpn::Natural;
using camp::mpz::Integer;
using namespace camp::bench;
namespace trace = camp::support::trace;
namespace kernels = camp::mpn::kernels;

int
main()
{
    camp::support::ThreadPool& pool = camp::support::ThreadPool::global();
    const unsigned threads = pool.executors();
    BenchJson json("perf_smoke");
    TimingOptions opts;
    opts.warmup = 1;
    opts.min_seconds = 0.2;
    camp::Rng rng(42);

    // Which SIMD tier the dispatcher picked (CAMP_SIMD override or
    // cpuid probe) — printed so a regression in any row below is
    // attributable to the kernel set that actually ran.
    const kernels::Tier tier = kernels::active_tier();
    std::printf("simd tier: %s\n", kernels::tier_name(tier));
    double best_simd_speedup = 1.0;

    const std::uint64_t mul_bits = 1u << 20; // 1 Mbit x 1 Mbit
    const Natural big_a = Natural::random_bits(rng, mul_bits);
    const Natural big_b = Natural::random_bits(rng, mul_bits);
    double mul_serial_s = 0;

    section("mpn monolithic multiply, serial vs pooled");
    {
        Natural serial_prod, pooled_prod;
        mul_serial_s = time_call(
            [&] {
                camp::support::SerialGuard guard;
                serial_prod = big_a * big_b;
            },
            opts);
        const double pooled_s =
            time_call([&] { pooled_prod = big_a * big_b; }, opts);
        CAMP_ASSERT(serial_prod == pooled_prod);
        const double bytes = 2.0 * (mul_bits / 8.0);
        json.add("mpn_mul_serial", mul_bits, 1, mul_serial_s, bytes);
        json.add("mpn_mul_pooled", mul_bits, threads, pooled_s, bytes,
                 {{"speedup", mul_serial_s / pooled_s}});
    }

    section("mpn 2n-by-n division vs same-size multiply");
    {
        // The 1M-digit pi division shape. Burnikel–Ziegler costs
        // O(M(n) log n) only when every recursion level halves evenly;
        // an odd half above the threshold falls to schoolbook and the
        // ratio climbs past 20. Both sides run serially, adjacently.
        const std::size_t n = 26796;
        std::vector<camp::mpn::Limb> a(2 * n), d(n), q(n + 1), r(n),
            prod(2 * n);
        for (auto& limb : a)
            limb = rng.next();
        for (auto& limb : d)
            limb = rng.next();
        d[n - 1] |= 1;
        camp::support::SerialGuard guard;
        const double mul_s = time_call(
            [&] {
                camp::mpn::mul(prod.data(), a.data(), n, d.data(), n);
            },
            opts);
        const double div_s = time_call(
            [&] {
                camp::mpn::divrem(q.data(), r.data(), a.data(), 2 * n,
                                  d.data(), n);
            },
            opts);
        const double div_over_mul = div_s / mul_s;
        std::printf("2n-by-n division at n=%zu limbs: %.2fx a multiply\n",
                    n, div_over_mul);
        CAMP_ASSERT(div_over_mul <= 8.0);
        json.add("mpn_div_2n_1n", n * 64, 1, div_s, 3.0 * n * 8.0,
                 {{"div_over_mul", div_over_mul}});
    }

    section("mpn square vs multiply; 2048-bit modular exponentiation");
    {
        // mpn_sqr_64: the 64-limb square (Karatsuba squares down to
        // sqr_basecase) against mul(a, a) on the same operand. Each
        // side keeps its best of 25 short rounds, alternating which
        // runs first, and sqr/mul <= 0.85 is hard-asserted: squaring
        // through mul read 0.93-1.0. powmod_2048 is a 2048-bit
        // exponent modulo a 2048-bit odd modulus, the shape of one CRT
        // half of an RSA-4096 decrypt; it is recorded only.
        const std::size_t n = 64;
        std::vector<camp::mpn::Limb> a(n), sq(2 * n), prod(2 * n);
        for (auto& limb : a)
            limb = rng.next();
        TimingOptions sq_opts = opts;
        sq_opts.min_seconds = 0.004;
        const auto square = [&] { camp::mpn::sqr(sq.data(), a.data(), n); };
        const auto product = [&] {
            camp::mpn::mul(prod.data(), a.data(), n, a.data(), n);
        };
        double sqr_s = std::numeric_limits<double>::infinity();
        double mul_s = sqr_s;
        for (unsigned round = 0; round < 25; ++round) {
            const bool square_first = round % 2 == 0;
            for (const bool is_square : {square_first, !square_first}) {
                if (is_square)
                    sqr_s = std::min(sqr_s, time_call(square, sq_opts));
                else
                    mul_s = std::min(mul_s, time_call(product, sq_opts));
            }
        }
        CAMP_ASSERT(sq == prod);
        const double sqr_over_mul = sqr_s / mul_s;
        std::printf("64-limb sqr/mul: %.2f\n", sqr_over_mul);
        CAMP_ASSERT(sqr_over_mul <= 0.85);
        json.add("mpn_sqr_64", n * 64, 1, sqr_s, n * 8.0,
                 {{"sqr_over_mul", sqr_over_mul}});

        const std::uint64_t bits = 2048;
        Natural modulus = Natural::random_bits(rng, bits);
        if (!modulus.is_odd())
            modulus += Natural(1);
        const Natural base = Natural::random_bits(rng, bits - 1);
        const Natural exponent = Natural::random_bits(rng, bits);
        Natural result;
        const double powmod_s = time_call(
            [&] { result = Integer::powmod(base, exponent, modulus); },
            opts);
        CAMP_ASSERT(result < modulus);
        json.add("powmod_2048", bits, 1, powmod_s, 3.0 * (bits / 8.0));
    }

    section("sim batch multiply, serial vs pooled");
    {
        const std::uint64_t bits = 2048;
        const std::size_t batch = 256;
        std::vector<std::pair<Natural, Natural>> pairs;
        pairs.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i)
            pairs.emplace_back(Natural::random_bits(rng, bits),
                               Natural::random_bits(rng, bits));
        camp::sim::BatchEngine engine;
        camp::sim::BatchResult serial_res, pooled_res;
        const double serial_s = time_call(
            [&] { serial_res = engine.multiply_batch(pairs, 1); },
            opts);
        const double pooled_s = time_call(
            [&] { pooled_res = engine.multiply_batch(pairs, 0); },
            opts);
        CAMP_ASSERT(serial_res.products == pooled_res.products);
        const double bytes =
            static_cast<double>(batch) * 2.0 * (bits / 8.0);
        json.add("batch_mul_serial", bits, 1, serial_s, bytes);
        json.add("batch_mul_pooled", bits, pooled_res.parallelism,
                 pooled_s, bytes, {{"speedup", serial_s / pooled_s}});
    }

    section("simd limb kernels, scalar vs dispatched");
    {
        // Microbench of the dispatched primitives against the scalar
        // reference on the same buffers. The gated win lives here:
        // add_n/sub_n are the carry-select movemask kernels. The
        // multiply-by-limb family has no table slot (pmuludq loses to
        // mulx, so it always runs scalar — see DESIGN.md §13).
        const kernels::KernelTable& scal = kernels::scalar_table();
        const kernels::KernelTable& act = kernels::active();
        const std::size_t n = 4096;
        std::vector<std::uint64_t> ap(n), bp(n), rp(n);
        for (std::size_t i = 0; i < n; ++i) {
            ap[i] = rng.next();
            bp[i] = rng.next();
        }
        TimingOptions kopts = opts;
        kopts.min_seconds = 0.05;
        const double bytes = 3.0 * n * 8.0;

        const double add_scal_s = time_call(
            [&] { scal.add_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double add_act_s = time_call(
            [&] { act.add_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double add_speedup = add_scal_s / add_act_s;
        json.add("kernel_add_n", n * 64, 1, add_act_s, bytes,
                 {{"speedup", add_speedup},
                  {"simd_tier", static_cast<double>(tier)}});

        const double sub_scal_s = time_call(
            [&] { scal.sub_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double sub_act_s = time_call(
            [&] { act.sub_n(rp.data(), ap.data(), bp.data(), n); },
            kopts);
        const double sub_speedup = sub_scal_s / sub_act_s;
        json.add("kernel_sub_n", n * 64, 1, sub_act_s, bytes,
                 {{"speedup", sub_speedup}});

        // Schoolbook basecase at 64x64 limbs: above the AVX2 kernel's
        // internal crossover, so the reduced-radix column path runs.
        const std::size_t bn = 64;
        std::vector<std::uint64_t> prod(2 * bn);
        const double bc_scal_s = time_call(
            [&] {
                scal.mul_basecase(prod.data(), ap.data(), bn, bp.data(),
                                  bn);
            },
            kopts);
        const double bc_act_s = time_call(
            [&] {
                act.mul_basecase(prod.data(), ap.data(), bn, bp.data(),
                                 bn);
            },
            kopts);
        const double bc_speedup = bc_scal_s / bc_act_s;
        json.add("kernel_basecase_64", bn * 64, 1, bc_act_s,
                 2.0 * bn * 8.0, {{"speedup", bc_speedup}});

        best_simd_speedup = std::max(
            {best_simd_speedup, add_speedup, sub_speedup, bc_speedup});
    }

    section("memory plane: copying batch vs pooled zero-copy wave");
    {
        // One 256-product 2048-bit wave, both ways, at parallelism 1;
        // each timer covers only the batch multiply itself. The copying
        // side is operator* over pairs built outside the timer: one
        // fresh product buffer per product (mpn.alloc.count += 256).
        // The wave side is CpuDevice::mul_batch_wave on a wave filled
        // outside the timer (each run rewrites the same slots):
        // products land in arena-backed slots carved at add() time, so
        // it allocates none. The alloc_per_wave row is the gated record
        // of that traffic drop: >= 10x fewer counted allocations per
        // wave, with products bit-identical.
        const std::uint64_t bits = 2048;
        const std::size_t batch = 256;
        std::vector<std::pair<Natural, Natural>> pairs;
        pairs.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i)
            pairs.emplace_back(Natural::random_bits(rng, bits),
                               Natural::random_bits(rng, bits));
        camp::exec::CpuDevice cpu;
        std::vector<std::size_t> items(batch);
        std::vector<std::uint64_t> indices(batch);
        for (std::size_t i = 0; i < batch; ++i) {
            items[i] = i;
            indices[i] = i;
        }
        camp::support::metrics::Counter& allocs =
            camp::support::metrics::counter("mpn.alloc.count");

        std::vector<Natural> copy_out(batch);
        std::uint64_t copy_allocs = 0;
        const double copy_s = time_call(
            [&] {
                const std::uint64_t before = allocs.value();
                for (std::size_t i = 0; i < batch; ++i)
                    copy_out[i] = pairs[i].first * pairs[i].second;
                copy_allocs = allocs.value() - before;
            },
            opts);

        camp::exec::WaveBuffer wave;
        for (const auto& [a, b] : pairs)
            wave.add(a, b);
        std::uint64_t wave_allocs = 0;
        const double wave_s = time_call(
            [&] {
                const std::uint64_t before = allocs.value();
                cpu.mul_batch_wave(wave, items, indices, 1);
                wave_allocs = allocs.value() - before;
            },
            opts);
        bool wave_identical = true;
        for (std::size_t i = 0; i < batch; ++i)
            wave_identical =
                wave_identical &&
                wave.result(i) == camp::mpn::LimbView(copy_out[i]);
        CAMP_ASSERT(wave_identical);

        // Steady state: a warm wave's execution allocates nothing, so
        // the ratio denominator is clamped to 1 for the JSON row.
        const double ratio = static_cast<double>(copy_allocs) /
                             static_cast<double>(
                                 std::max<std::uint64_t>(wave_allocs, 1));
        std::printf("alloc traffic per wave: copy=%llu zero-copy=%llu "
                    "(%.0fx reduction)\n",
                    static_cast<unsigned long long>(copy_allocs),
                    static_cast<unsigned long long>(wave_allocs),
                    ratio);
        CAMP_ASSERT(copy_allocs >= batch);
        CAMP_ASSERT(ratio >= 10.0);

        const double bytes =
            static_cast<double>(batch) * 2.0 * (bits / 8.0);
        json.add("wave_mul_copy", bits, 1, copy_s / batch,
                 bytes / batch,
                 {{"allocs", static_cast<double>(copy_allocs)}});
        json.add("alloc_per_wave", bits, 1, wave_s / batch,
                 bytes / batch,
                 {{"allocs", static_cast<double>(wave_allocs)},
                  {"reduction", ratio},
                  {"speedup", copy_s / wave_s}});
    }

    section("wave fork rule: parallelism 0 vs 1");
    {
        // CpuDevice::mul_batch_wave on one pre-filled wave at
        // parallelism 0 (the pool, subject to the fork rule) and 1
        // (always inline). A 2-product wave of 256- or 1024-bit
        // operands holds far less work than one pool round trip
        // repays, so the pooled call must run inline as well: ratio
        // <= 1.2, hard-asserted (forking every multi-product wave read
        // 9.7x and 5.1x). The 16 x 16384-bit wave forks; its ratio is
        // recorded only. Each side keeps its best of 25 short rounds,
        // and which side runs first alternates by round, so one slow
        // slice of a shared host cannot decide a ratio.
        camp::exec::CpuDevice cpu;
        TimingOptions fork_opts = opts;
        fork_opts.min_seconds = 0.004;
        // {parallelism 0, parallelism 1} seconds per wave.
        const auto best_times = [&](std::size_t count, std::uint64_t bits) {
            camp::exec::WaveBuffer wave;
            std::vector<std::size_t> items(count);
            std::vector<std::uint64_t> indices(count);
            for (std::size_t i = 0; i < count; ++i) {
                items[i] = wave.add(Natural::random_bits(rng, bits),
                                    Natural::random_bits(rng, bits));
                indices[i] = i;
            }
            // Indexed by parallelism.
            double best[2] = {std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity()};
            for (unsigned round = 0; round < 25; ++round)
                for (const unsigned parallelism :
                     {round % 2, 1 - round % 2})
                    best[parallelism] = std::min(
                        best[parallelism],
                        time_call(
                            [&] {
                                cpu.mul_batch_wave(wave, items, indices,
                                                   parallelism);
                            },
                            fork_opts));
            const double pooled_s = best[0];
            const double inline_s = best[1];
            std::printf("%2zu x %5llu-bit wave: pooled/inline %.2fx\n",
                        count, static_cast<unsigned long long>(bits),
                        pooled_s / inline_s);
            return std::pair{pooled_s, inline_s};
        };
        const auto [pooled_256_s, inline_256_s] = best_times(2, 256);
        const auto [pooled_1024_s, inline_1024_s] = best_times(2, 1024);
        const auto [pooled_large_s, inline_large_s] = best_times(16, 16384);
        const double ratio_256 = pooled_256_s / inline_256_s;
        const double ratio_1024 = pooled_1024_s / inline_1024_s;
        CAMP_ASSERT(ratio_256 <= 1.2);
        CAMP_ASSERT(ratio_1024 <= 1.2);
        json.add("wave_fork_small", 1024, threads, pooled_1024_s / 2,
                 2.0 * (1024 / 8.0),
                 {{"ratio_256", ratio_256}, {"ratio_1024", ratio_1024}});
        json.add("wave_fork_large", 16384, threads, pooled_large_s / 16,
                 2.0 * (16384 / 8.0),
                 {{"ratio", pooled_large_s / inline_large_s}});
    }

    // The tentpole gate: with any SIMD tier active, at least one gated
    // kernel row must beat scalar by more than 1.5x. (Scalar-forced
    // runs — CAMP_SIMD=scalar CI legs — measure the same rows at ~1.0x
    // without gating, keeping the leg meaningful on any host.)
    std::printf("\nbest simd speedup: %.2fx (tier %s)\n",
                best_simd_speedup, kernels::tier_name(tier));
    if (tier != kernels::Tier::Scalar)
        CAMP_ASSERT(best_simd_speedup > 1.5);

    section("tracing overhead");
    {
        // Always-paid cost: a disabled Span is one relaxed load.
        const bool was_enabled = trace::enabled();
        trace::set_enabled(false);
        const std::size_t kSpans = 1u << 20;
        const double batch_s = time_call(
            [&] {
                for (std::size_t i = 0; i < kSpans; ++i) {
                    trace::Span span("bench.noop", "bench");
                    span.arg("i", static_cast<double>(i));
                }
            },
            opts);
        const double off_span_ns = batch_s / kSpans * 1e9;

        // Spans the 1-Mbit multiply emits (tracing on, serial so the
        // count is deterministic), to scale the per-span cost into a
        // percentage of the real op.
        trace::set_enabled(true);
        const std::uint64_t emitted_before = trace::total_emitted();
        Natural traced_prod;
        {
            camp::support::SerialGuard guard;
            traced_prod = big_a * big_b;
        }
        const double spans_per_op = static_cast<double>(
            trace::total_emitted() - emitted_before);
        const double off_overhead_pct = mul_serial_s > 0
            ? spans_per_op * off_span_ns / (mul_serial_s * 1e9) * 100.0
            : 0.0;

        // And the measured cost of actually recording those spans.
        const double on_s = time_call(
            [&] {
                camp::support::SerialGuard guard;
                traced_prod = big_a * big_b;
            },
            opts);
        trace::set_enabled(was_enabled);
        CAMP_ASSERT(traced_prod == big_a * big_b);
        const double on_overhead_pct = mul_serial_s > 0
            ? (on_s / mul_serial_s - 1.0) * 100.0
            : 0.0;

        const double bytes = 2.0 * (mul_bits / 8.0);
        json.add("trace_off_mul", mul_bits, 1, mul_serial_s, bytes,
                 {{"span_ns", off_span_ns},
                  {"spans_per_op", spans_per_op},
                  {"overhead_pct", off_overhead_pct}});
        json.add("trace_on_mul", mul_bits, 1, on_s, bytes,
                 {{"overhead_pct", on_overhead_pct}});
        CAMP_ASSERT(off_overhead_pct < 2.0);
    }

    section("mpapca decomposed multiply (runtime + sim + mpn spans)");
    {
        // Above the monolithic capability, so mul_functional really
        // decomposes and every base product routes through sim::Core.
        camp::mpapca::Runtime runtime("sim");
        const std::uint64_t cap =
            runtime.cost_model().config().monolithic_cap_bits;
        const std::uint64_t bits = 3 * cap;
        const Natural a = Natural::random_bits(rng, bits);
        const Natural b = Natural::random_bits(rng, bits);
        Natural prod;
        TimingOptions mp_opts = opts;
        mp_opts.min_seconds = 0.05; // the slowest section; keep < 10 s
        const double mp_s =
            time_call([&] { prod = runtime.mul_functional(a, b); },
                      mp_opts);
        CAMP_ASSERT(prod == a * b);
        const double bytes = 2.0 * (bits / 8.0);
        json.add("mpapca_mul_functional", bits, threads, mp_s, bytes);
    }

    // A CAMP_TRACE run gets its JSON at exit; always print the
    // registry so the counters threaded through the layers are visible.
    section("metrics registry");
    std::printf(
        "%s",
        camp::support::metrics::Registry::instance()
            .render_table()
            .c_str());

    json.write_file();
    return maybe_gate(json);
}
