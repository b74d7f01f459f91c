/**
 * @file
 * Float (mpf layer) tests: exact dyadic cases against double, precision
 * truncation, sqrt/div convergence at high precision, and known
 * constants.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "fuzz_seed.hpp"
#include "mpf/float.hpp"
#include "support/rng.hpp"

using camp::mpf::Float;
using camp::mpn::Natural;
using camp::mpz::Integer;

namespace {

/** |a - b| <= 2^max_exp_err relative-ish tolerance via doubles. */
void
expect_close(const Float& a, double expect, double rel = 1e-14)
{
    const double got = a.to_double();
    EXPECT_NEAR(got, expect,
                std::abs(expect) * rel + 1e-300);
}

/** Reference for Float::normalize(): truncate toward zero to @p prec
 * mantissa bits, then strip trailing zero 64-bit limbs — computed
 * here with raw Natural shifts so Float results can be checked
 * limb-exactly, not through doubles. */
std::pair<Natural, std::int64_t>
ref_normalize(Natural mant, std::int64_t exp, std::uint64_t prec)
{
    if (mant.is_zero())
        return {Natural(), 0};
    const std::uint64_t bits = mant.bits();
    if (bits > prec) {
        mant >>= (bits - prec);
        exp += static_cast<std::int64_t>(bits - prec);
    }
    std::uint64_t tz = 0;
    while (mant.limb(tz / 64) == 0)
        tz += 64;
    if (tz > 0) {
        mant >>= tz;
        exp += static_cast<std::int64_t>(tz);
    }
    return {std::move(mant), exp};
}

/** Limb-exact check: @p f's (mantissa, exponent) must equal the raw
 * pair (@p mant, @p exp) after reference normalization at @p prec. */
void
expect_parts(const Float& f, const Natural& mant, std::int64_t exp,
             std::uint64_t prec)
{
    const auto [m, e] = ref_normalize(mant, exp, prec);
    EXPECT_EQ(f.mantissa(), m);
    EXPECT_EQ(f.exponent(), e);
}

} // namespace

TEST(Float, DyadicExactArithmetic)
{
    camp::Rng rng(81);
    for (int iter = 0; iter < 200; ++iter) {
        // Dyadic doubles: arithmetic on them is exact in both systems
        // as long as no rounding occurs.
        const double a = static_cast<double>(
                             static_cast<std::int32_t>(rng.next())) /
                         1024.0;
        const double b = static_cast<double>(
                             static_cast<std::int32_t>(rng.next())) /
                         1024.0;
        const Float fa = Float::from_double(a, 128);
        const Float fb = Float::from_double(b, 128);
        EXPECT_DOUBLE_EQ((fa + fb).to_double(), a + b);
        EXPECT_DOUBLE_EQ((fa - fb).to_double(), a - b);
        EXPECT_DOUBLE_EQ((fa * fb).to_double(), a * b);
    }
}

TEST(Float, FromDoubleRoundTrip)
{
    for (const double v : {0.0, 1.0, -1.0, 0.5, 3.141592653589793,
                           -2.2250738585072014e-308, 1.7976931348623157e308,
                           123456789.123456789}) {
        EXPECT_DOUBLE_EQ(Float::from_double(v, 64).to_double(), v);
    }
}

TEST(Float, PrecisionTruncationDropsLowBits)
{
    // (2^100 + 1) at 64-bit precision loses the +1.
    const Natural big = (Natural(1) << 100) + Natural(1);
    const Float f = Float::from_parts(big, 0, false, 64);
    EXPECT_EQ(f.mantissa(), Natural(1) << 63);
    EXPECT_EQ(f.exponent(), 37);
}

TEST(Float, DivisionConvergesToKnownValue)
{
    const Float one = Float::from_natural(Natural(1), 512);
    const Float three = Float::from_natural(Natural(3), 512);
    const Float third = one / three;
    // 1/3 * 3 == 1 - eps with eps < 2^-500.
    const Float err = Float::abs(Float::from_natural(Natural(1), 512) -
                                 third * three);
    EXPECT_TRUE(err.is_zero() || err.magnitude_exp() < -500);
}

TEST(Float, SqrtTwoMatchesKnownDigits)
{
    const Float two = Float::from_natural(Natural(2), 400);
    const Float s = Float::sqrt(two);
    // First 60 fractional digits of sqrt(2).
    EXPECT_EQ(s.to_decimal(60).substr(0, 62),
              "1.414213562373095048801688724209698078569671875376948073"
              "176679");
}

TEST(Float, SqrtSquareRoundTrip)
{
    camp::Rng rng(82);
    for (int iter = 0; iter < 20; ++iter) {
        const Natural m = Natural::random_bits(rng, 1 + rng.below(200));
        const Float f = Float::from_natural(m * m, 600);
        EXPECT_EQ(Float::sqrt(f).to_integer(), Integer(m));
    }
}

TEST(Float, SqrtNegativeThrows)
{
    EXPECT_THROW(Float::sqrt(Float::from_double(-1.0, 64)),
                 std::invalid_argument);
}

TEST(Float, ComparisonAcrossExponents)
{
    const Float a = Float::from_double(1.5, 64);
    const Float b = Float::from_double(1.25, 64);
    EXPECT_GT(a, b);
    EXPECT_LT(-a, -b);
    EXPECT_LT(-a, b);
    EXPECT_GT(a, Float());
    EXPECT_LT(-a, Float());
    EXPECT_EQ(Float::from_double(0.5, 64),
              Float::from_parts(Natural(1), -1, false, 64));
}

TEST(Float, AbsorptionOfTinyAddend)
{
    // Adding something below the precision window is a no-op under
    // truncation semantics.
    const Float big = Float::from_parts(Natural(1), 200, false, 128);
    const Float tiny = Float::from_double(1.0, 128);
    EXPECT_EQ(big + tiny, big);
}

TEST(Float, LdexpIsExact)
{
    const Float f = Float::from_double(1.5, 64);
    expect_close(f.ldexp(10), 1536.0);
    expect_close(f.ldexp(-4), 0.09375);
}

TEST(Float, ToDecimalKnownValues)
{
    EXPECT_EQ(Float::from_double(0.25, 64).to_decimal(4), "0.2500");
    EXPECT_EQ(Float::from_double(-2.5, 64).to_decimal(2), "-2.50");
    EXPECT_EQ(Float::from_natural(Natural(42), 64).to_decimal(3),
              "42.000");
}

TEST(Float, ToIntegerTruncatesTowardZero)
{
    EXPECT_EQ(Float::from_double(2.75, 64).to_integer(), Integer(2));
    EXPECT_EQ(Float::from_double(-2.75, 64).to_integer(), Integer(-2));
    EXPECT_EQ(Float().to_integer(), Integer(0));
}

TEST(Float, EdgeVectorsLimbExact)
{
    // Directed edge-case vectors at the exact truncation/absorption
    // boundaries, checked limb-for-limb against Natural arithmetic
    // (never through doubles).

    // Carry out of the precision window: (2^64 - 1) + 1 = 2^64 has 65
    // bits at prec 64 — one bit is truncated away.
    {
        const Float ones =
            Float::from_parts((Natural(1) << 64) - Natural(1), 0,
                              false, 64);
        const Float one = Float::from_parts(Natural(1), 0, false, 64);
        expect_parts(ones + one, Natural(1) << 64, 0, 64);
    }
    // Same carry at prec 128: the result 2^128 also crosses a limb
    // boundary, so the trailing-zero-limb strip kicks in.
    {
        const Float ones =
            Float::from_parts((Natural(1) << 128) - Natural(1), 0,
                              false, 128);
        const Float one = Float::from_parts(Natural(1), 0, false, 128);
        const Float sum = ones + one;
        expect_parts(sum, Natural(1) << 128, 0, 128);
        EXPECT_EQ(sum.mantissa(), Natural(1) << 63);
        EXPECT_EQ(sum.exponent(), 65);
    }
    // Catastrophic cancellation across an exponent boundary:
    // 2^100 - (2^100 - 2^36) = 2^36 exactly, full leading-bit loss.
    {
        const Float a = Float::from_parts(Natural(1), 100, false, 64);
        const Float b = Float::from_parts((Natural(1) << 64) - Natural(1),
                                          36, false, 64);
        const Float diff = a - b;
        EXPECT_FALSE(diff.is_negative());
        expect_parts(diff, Natural(1), 36, 64);
        const Float neg = b - a;
        EXPECT_TRUE(neg.is_negative());
        expect_parts(neg, Natural(1), 36, 64);
    }
    // Absorption boundary (documented GMP-style drop): a magnitude gap
    // of prec + 3 is discarded entirely; a gap of prec + 2 still
    // borrows one ulp out of the window on subtraction.
    {
        const Float one = Float::from_parts(Natural(1), 0, false, 64);
        const Float dropped = Float::from_parts(Natural(1), -67, false,
                                                64);
        EXPECT_EQ((one - dropped).mantissa(), one.mantissa());
        EXPECT_EQ((one - dropped).exponent(), one.exponent());
        const Float kept = Float::from_parts(Natural(1), -66, false, 64);
        expect_parts(one - kept, (Natural(1) << 66) - Natural(1), -66,
                     64);
    }
    // Multiplication at the precision limit: (2^64 - 1)^2 has 128
    // bits; exactly the top 64 survive.
    {
        const Natural ones = (Natural(1) << 64) - Natural(1);
        const Float f = Float::from_parts(ones, 0, false, 64);
        expect_parts(f * f, ones * ones, 0, 64);
    }
    // Division rounding at the precision limit: 1/3 truncates the
    // infinite 0b01 pattern after the prec + 2 guard bits the
    // implementation documents.
    {
        const Float one = Float::from_parts(Natural(1), 0, false, 64);
        const Float three = Float::from_parts(Natural(3), 0, false, 64);
        expect_parts(one / three, (Natural(1) << 67) / Natural(3), -67,
                     64);
    }
}

TEST(Float, FuzzLimbExactVsNaturalReference)
{
    // >= 1000 randomized cases cross-checking Float arithmetic
    // limb-exactly against raw Natural computations:
    //  - subtraction whose exact result fits in prec bits must be
    //    EXACT (cancellation means truncation cannot fire);
    //  - addition of a value just inside/outside the absorption
    //    window matches the documented alignment semantics;
    //  - multiplication is truncation of the exact Natural product;
    //  - division matches the documented prec+2-guard-bit scaling.
    const std::uint64_t seed = fuzz_seed(0xf10a7ull);
    camp::Rng rng(seed);
    int cases = 0;
    while (cases < 1000) {
        SCOPED_TRACE("cases=" + std::to_string(cases) +
                     " seed=" + std::to_string(seed) +
                     " (replay: CAMP_FUZZ_SEED=<seed>)");
        const std::uint64_t prec = 64 + rng.below(256);
        const std::int64_t e =
            static_cast<std::int64_t>(rng.below(400)) - 200;
        const Natural ma = Natural::random_bits(rng, 1 + rng.below(prec));
        const Natural mb = Natural::random_bits(rng, 1 + rng.below(prec));
        const bool neg = rng.below(2) != 0;
        const Float fa = Float::from_parts(ma, e, neg, prec);

        // Exact-fit subtraction at a shared exponent: |ma - mb| has at
        // most prec bits, so the Float result must be bit-exact.
        {
            const Float fb = Float::from_parts(mb, e, neg, prec);
            const Float diff = fa - fb;
            if (ma >= mb)
                expect_parts(diff, ma - mb, e, prec);
            else
                expect_parts(diff, mb - ma, e, prec);
            if (ma != mb) {
                EXPECT_EQ(diff.is_negative(), (ma < mb) != neg);
            }
        }

        // Absorption window: tiny at gap prec + 3 is dropped; at gap
        // prec + 2 it aligns into the window (same-sign add appends a
        // 1 below the mantissa).
        {
            const std::int64_t mag =
                e + static_cast<std::int64_t>(ma.bits()) - 1;
            const Float dropped = Float::from_parts(
                Natural(1), mag - static_cast<std::int64_t>(prec) - 3,
                neg, prec);
            const Float same = fa + dropped;
            EXPECT_EQ(same.mantissa(), fa.mantissa());
            EXPECT_EQ(same.exponent(), fa.exponent());
            const std::int64_t et =
                mag - static_cast<std::int64_t>(prec) - 2;
            const Float kept =
                Float::from_parts(Natural(1), et, neg, prec);
            const Natural aligned =
                ma << static_cast<std::uint64_t>(e - et);
            expect_parts(fa + kept, aligned + Natural(1), et, prec);
        }

        // Multiplication: truncation of the exact product.
        {
            const Float fb =
                Float::from_parts(mb, -e / 2, false, prec);
            expect_parts(fa * fb, ma * mb, e + (-e / 2), prec);
        }

        // Division: quotient carries prec + 2 bits via the documented
        // dividend scaling, then truncates.
        {
            const std::int64_t e2 =
                static_cast<std::int64_t>(rng.below(100)) - 50;
            const Float fb = Float::from_parts(mb, e2, false, prec);
            const std::int64_t scale =
                static_cast<std::int64_t>(prec) + 2 +
                static_cast<std::int64_t>(mb.bits()) -
                static_cast<std::int64_t>(ma.bits());
            const std::uint64_t up =
                scale > 0 ? static_cast<std::uint64_t>(scale) : 0;
            const Natural q = (ma << up) / mb;
            expect_parts(fa / fb,  q,
                         e - e2 - static_cast<std::int64_t>(up), prec);
        }
        cases += 5;
    }
}

TEST(Float, HighPrecisionNewtonPi)
{
    // Machin-like check: 4*atan-free; instead verify that
    // sqrt(10005) used by Chudnovsky has the right leading digits.
    const Float v =
        Float::sqrt(Float::from_natural(Natural(10005), 300));
    EXPECT_EQ(v.to_decimal(30).substr(0, 20), "100.0249968757810059");
}
