/**
 * @file
 * Fuzz-style robustness tests: randomized algorithm thresholds force
 * deep cross-algorithm recursions, adversarial bit patterns stress
 * carry paths, and off-nominal simulator configurations validate the
 * schedule model beyond the paper's single design point.
 *
 * Seeds: every randomized test uses a fixed per-test default seed,
 * overridable with the CAMP_FUZZ_SEED environment variable. Failure
 * messages carry the effective seed, so any failure replays with
 * CAMP_FUZZ_SEED=<printed seed> ctest -R Fuzz.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fuzz_seed.hpp"
#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "sim/analytic_model.hpp"
#include "sim/core.hpp"
#include "support/rng.hpp"

namespace mpn = camp::mpn;
using mpn::Limb;
using mpn::Natural;

namespace {

/** RAII: scramble the mul/div thresholds, restore on exit. */
class TuningFuzz
{
  public:
    TuningFuzz(camp::Rng& rng)
        : saved_mul_(mpn::mul_tuning()), saved_div_(mpn::div_tuning())
    {
        auto& mul = mpn::mul_tuning();
        mul.karatsuba = 4 + rng.below(28);
        mul.toom3 = mul.karatsuba + 6 + rng.below(40);
        mul.toom4 = mul.toom3 + 8 + rng.below(60);
        mul.toom6 = mul.toom4 + 12 + rng.below(80);
        mul.ssa = mul.toom6 + 16 + rng.below(200);
        mpn::div_tuning().bz = 4 + rng.below(40);
    }
    ~TuningFuzz()
    {
        mpn::mul_tuning() = saved_mul_;
        mpn::div_tuning() = saved_div_;
    }

  private:
    mpn::MulTuning saved_mul_;
    mpn::DivTuning saved_div_;
};

std::vector<Limb>
adversarial_limbs(camp::Rng& rng, std::size_t n)
{
    std::vector<Limb> v(n);
    const int mode = static_cast<int>(rng.below(5));
    for (std::size_t i = 0; i < n; ++i) {
        switch (mode) {
        case 0: v[i] = mpn::kLimbMax; break;               // all ones
        case 1: v[i] = i == 0 || i + 1 == n ? 1 : 0; break; // sparse
        case 2: v[i] = 0xaaaaaaaaaaaaaaaaULL; break;       // stripes
        case 3: v[i] = rng.below(2) ? mpn::kLimbMax : 0; break;
        default: v[i] = rng.next(); break;
        }
    }
    if (v.back() == 0)
        v.back() = 1;
    return v;
}

} // namespace

TEST(Fuzz, MulWithScrambledThresholds)
{
    const std::uint64_t seed = fuzz_seed(160);
    camp::Rng rng(seed);
    for (int round = 0; round < 15; ++round) {
        TuningFuzz fuzz(rng);
        const std::size_t an = 1 + rng.below(600);
        const std::size_t bn = 1 + rng.below(an);
        const auto a = adversarial_limbs(rng, an);
        const auto b = adversarial_limbs(rng, bn);
        std::vector<Limb> got(an + bn), expect(an + bn);
        mpn::mul(got.data(), a.data(), an, b.data(), bn);
        mpn::mul_basecase(expect.data(), a.data(), an, b.data(), bn);
        EXPECT_EQ(got, expect)
            << "round " << round << " seed " << seed;
    }
}

TEST(Fuzz, DivremWithScrambledThresholds)
{
    const std::uint64_t seed = fuzz_seed(161);
    camp::Rng rng(seed);
    for (int round = 0; round < 15; ++round) {
        TuningFuzz fuzz(rng);
        const std::size_t dn = 1 + rng.below(120);
        const std::size_t an = dn + rng.below(3 * dn + 1);
        const auto a = adversarial_limbs(rng, an);
        const auto d = adversarial_limbs(rng, dn);
        std::vector<Limb> q(an - dn + 1), r(dn);
        mpn::divrem(q.data(), r.data(), a.data(), an, d.data(), dn);
        // Invariant check with full-precision arithmetic.
        const Natural na = Natural::from_limbs({a.begin(), a.end()});
        const Natural nd = Natural::from_limbs({d.begin(), d.end()});
        const Natural nq = Natural::from_limbs({q.begin(), q.end()});
        const Natural nr = Natural::from_limbs({r.begin(), r.end()});
        EXPECT_EQ(nq * nd + nr, na)
            << "round " << round << " seed " << seed;
        EXPECT_LT(nr, nd) << "round " << round << " seed " << seed;
    }
}

TEST(Fuzz, SsaAdversarialPatterns)
{
    const std::uint64_t seed = fuzz_seed(162);
    camp::Rng rng(seed);
    for (int round = 0; round < 10; ++round) {
        const std::size_t an = 64 + rng.below(400);
        const std::size_t bn = 32 + rng.below(an - 31);
        const auto a = adversarial_limbs(rng, an);
        const auto b = adversarial_limbs(rng, bn);
        std::vector<Limb> got(an + bn), expect(an + bn);
        mpn::mul_ssa(got.data(), a.data(), an, b.data(), bn);
        mpn::mul(expect.data(), a.data(), an, b.data(), bn);
        EXPECT_EQ(got, expect)
            << "round " << round << " seed " << seed;
    }
}

TEST(Fuzz, PowersOfTwoBoundaries)
{
    // 2^k-1, 2^k, 2^k+1 operand combinations around limb boundaries.
    for (const std::uint64_t k : {63u, 64u, 65u, 127u, 128u, 4095u,
                                  4096u}) {
        const Natural p = Natural(1) << k;
        for (const Natural& a : {p - Natural(1), p, p + Natural(1)}) {
            for (const Natural& b :
                 {p - Natural(1), p, p + Natural(1)}) {
                // Cross-check mul against square-difference identity:
                // a*b = ((a+b)^2 - (a-b)^2) / 4 for a >= b.
                const Natural& hi = a >= b ? a : b;
                const Natural& lo = a >= b ? b : a;
                const Natural s = hi + lo, d = hi - lo;
                EXPECT_EQ((s * s - d * d) >> 2, a * b)
                    << "k=" << k;
            }
        }
    }
}

TEST(Fuzz, SimCoreOffNominalConfigs)
{
    const std::uint64_t seed = fuzz_seed(163);
    camp::Rng rng(seed);
    for (const unsigned n_pe : {16u, 64u, 333u}) {
        for (const unsigned n_ipu : {8u, 32u}) {
            camp::sim::SimConfig config;
            config.n_pe = n_pe;
            config.n_ipu = n_ipu;
            camp::sim::Core core(config);
            const camp::sim::AnalyticModel model(config);
            const std::uint64_t bits = 500 + rng.below(8000);
            const Natural a = Natural::random_bits(rng, bits);
            const Natural b = Natural::random_bits(rng, bits);
            const auto result = core.multiply(a, b);
            EXPECT_EQ(result.product, a * b) << "seed " << seed;
            EXPECT_EQ(result.stats.cycles,
                      model.multiply_cycles(bits, bits))
                << n_pe << "x" << n_ipu << " seed " << seed;
        }
    }
}

TEST(Fuzz, DecimalConversionAdversarial)
{
    const std::uint64_t seed = fuzz_seed(164);
    camp::Rng rng(seed);
    // Numbers with long runs of 0/9 digits stress the split logic.
    for (int round = 0; round < 10; ++round) {
        std::string digits = std::to_string(1 + rng.below(9));
        const std::size_t len = 1 + rng.below(3000);
        const int mode = static_cast<int>(rng.below(3));
        for (std::size_t i = 0; i < len; ++i) {
            digits.push_back(mode == 0   ? '0'
                             : mode == 1 ? '9'
                                         : static_cast<char>(
                                               '0' + rng.below(10)));
        }
        EXPECT_EQ(Natural::from_decimal(digits).to_decimal(), digits)
            << "round " << round << " seed " << seed;
    }
}
