/**
 * @file
 * Integer (mpz layer) tests: sign-magnitude arithmetic, truncated
 * division semantics, modular helpers, and primality testing.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fuzz_seed.hpp"
#include "mpz/integer.hpp"
#include "support/rng.hpp"

using camp::mpn::Natural;
using camp::mpz::Integer;

TEST(Integer, SmallConstructionAndSign)
{
    EXPECT_EQ(Integer(0).to_int64(), 0);
    EXPECT_EQ(Integer(5).to_int64(), 5);
    EXPECT_EQ(Integer(-5).to_int64(), -5);
    EXPECT_FALSE(Integer(0).is_negative());
    EXPECT_FALSE((-Integer(0)).is_negative()); // -0 == 0
    EXPECT_EQ(Integer(INT64_MIN).abs().to_decimal(),
              "9223372036854775808");
}

TEST(Integer, SignedArithmeticMatchesInt64)
{
    camp::Rng rng(61);
    for (int iter = 0; iter < 300; ++iter) {
        const std::int64_t a =
            static_cast<std::int32_t>(rng.next());
        const std::int64_t b =
            static_cast<std::int32_t>(rng.next());
        EXPECT_EQ((Integer(a) + Integer(b)).to_int64(), a + b);
        EXPECT_EQ((Integer(a) - Integer(b)).to_int64(), a - b);
        EXPECT_EQ((Integer(a) * Integer(b)).to_int64(), a * b);
        if (b != 0) {
            EXPECT_EQ((Integer(a) / Integer(b)).to_int64(), a / b)
                << a << "/" << b;
            EXPECT_EQ((Integer(a) % Integer(b)).to_int64(), a % b)
                << a << "%" << b;
        }
    }
}

TEST(Integer, DivremInvariantAllSignCombos)
{
    camp::Rng rng(62);
    for (int iter = 0; iter < 40; ++iter) {
        const Natural am = Natural::random_bits(rng, 1 + rng.below(300));
        const Natural bm = Natural::random_bits(rng, 1 + rng.below(200));
        for (const bool an : {false, true}) {
            for (const bool bn : {false, true}) {
                const Integer a(am, an), b(bm, bn);
                auto [q, r] = Integer::divrem(a, b);
                EXPECT_EQ(q * b + r, a);
                EXPECT_LT(r.abs(), b.abs());
                // Truncated: remainder has the dividend's sign.
                if (!r.is_zero())
                    EXPECT_EQ(r.is_negative(), a.is_negative());
            }
        }
    }
}

TEST(Integer, DecimalRoundTripWithSign)
{
    EXPECT_EQ(Integer::from_decimal("-12345678901234567890").to_decimal(),
              "-12345678901234567890");
    EXPECT_EQ(Integer::from_decimal("0").to_decimal(), "0");
    EXPECT_THROW(Integer::from_decimal(""), std::invalid_argument);
}

TEST(Integer, ComparisonTotalOrder)
{
    EXPECT_LT(Integer(-5), Integer(-4));
    EXPECT_LT(Integer(-5), Integer(0));
    EXPECT_LT(Integer(-5), Integer(3));
    EXPECT_LT(Integer(2), Integer(3));
    EXPECT_GT(Integer(-2), Integer(-3));
    EXPECT_EQ(Integer(7) <=> Integer(7), std::strong_ordering::equal);
}

TEST(Integer, EuclideanMod)
{
    EXPECT_EQ(Integer::mod(Integer(-7), Natural(3)), Natural(2));
    EXPECT_EQ(Integer::mod(Integer(7), Natural(3)), Natural(1));
    EXPECT_EQ(Integer::mod(Integer(-9), Natural(3)), Natural(0));
}

TEST(Integer, PowmodMatchesNaive)
{
    camp::Rng rng(63);
    for (int iter = 0; iter < 15; ++iter) {
        Natural m = Natural::random_bits(rng, 2 + rng.below(120));
        if (m == Natural(1))
            m += Natural(1);
        const Natural b = Natural::random_bits(rng, 1 + rng.below(90));
        const std::uint64_t e = rng.below(200);
        Natural naive(1);
        for (std::uint64_t i = 0; i < e; ++i)
            naive = (naive * b) % m;
        EXPECT_EQ(Integer::powmod(b, Natural(e), m), naive)
            << "odd=" << m.is_odd();
    }
}

TEST(Integer, PowmodFermatLittleTheorem)
{
    // 2^(p-1) == 1 mod p for prime p.
    const Natural p = Natural::from_decimal("1000000007");
    EXPECT_EQ(Integer::powmod(Natural(2), p - Natural(1), p), Natural(1));
    // Large known prime 2^127 - 1.
    const Natural m127 = (Natural(1) << 127) - Natural(1);
    EXPECT_EQ(Integer::powmod(Natural(3), m127 - Natural(1), m127),
              Natural(1));
}

namespace {

/** Left-to-right square-and-multiply on Natural: the oracle for the
 * sliding-window Montgomery powmod. */
Natural
reference_powmod(const Natural& base, const Natural& exp, const Natural& m)
{
    const Natural b = base % m;
    Natural acc = Natural(1) % m;
    for (std::uint64_t i = exp.bits(); i-- > 0;) {
        acc = (acc * acc) % m;
        if (exp.bit(i))
            acc = (acc * b) % m;
    }
    return acc;
}

Natural
all_ones(std::uint64_t bits)
{
    return (Natural(1) << bits) - Natural(1);
}

} // namespace

TEST(Integer, PowmodSlidingWindowDifferentialFuzz)
{
    // Moduli of 1-80 limbs, odd and even, plus m = 1 and 2; exponent
    // lengths on both sides of every window-width boundary
    // (23/24, 79/80, 239/240, 671/672 bits), 0 and 1; bases 0, m and
    // above m; all-ones bases, exponents and moduli.
    const std::uint64_t seed = fuzz_seed(0x5e1d1a6ull);
    camp::Rng rng(seed);
    const std::uint64_t boundary_bits[] = {23, 24, 79, 80, 239,
                                           240, 671, 672};
    for (int cases = 0; cases < 1000; ++cases) {
        std::uint64_t ebits;
        switch (rng.below(4)) {
        case 0: ebits = rng.below(2); break; // exponent 0 or 1
        case 1: ebits = boundary_bits[rng.below(8)]; break;
        default: ebits = 2 + rng.below(100); break;
        }
        // Long exponents keep to smaller moduli so the oracle's
        // divisions stay cheap.
        const std::size_t limbs = 1 + rng.below(ebits > 240 ? 12 : 80);
        Natural m;
        switch (cases % 25) {
        case 0: m = Natural(1); break;
        case 1: m = Natural(2); break;
        case 2: m = all_ones(64 * limbs - rng.below(64)); break;
        default:
            m = Natural::random_bits(rng, 64 * limbs - rng.below(64));
            if (m.is_odd() != (cases % 2 == 0))
                m = m.is_odd() ? m - Natural(1) : m + Natural(1);
            if (m < Natural(2))
                m = Natural(3);
            break;
        }
        Natural base;
        switch (rng.below(6)) {
        case 0: break; // 0
        case 1: base = m; break;
        case 2: base = m + Natural::random_bits(rng, 1 + rng.below(200));
            break;
        case 3: base = all_ones(1 + rng.below(m.bits() + 64)); break;
        default:
            base = Natural::random_bits(rng, 1 + rng.below(m.bits()));
            break;
        }
        const Natural exp = ebits == 1 || rng.below(8) == 0
                                ? all_ones(ebits)
                                : Natural::random_bits(rng, ebits);
        ASSERT_EQ(Integer::powmod(base, exp, m),
                  reference_powmod(base, exp, m))
            << "case=" << cases << " m_bits=" << m.bits()
            << " odd=" << m.is_odd() << " e_bits=" << exp.bits()
            << " base_bits=" << base.bits()
            << " CAMP_FUZZ_SEED=" << seed;
    }
}

TEST(Integer, InvmodInvertsAndThrowsOnNonCoprime)
{
    camp::Rng rng(64);
    const Natural m = Natural::from_decimal("1000000007");
    for (int iter = 0; iter < 20; ++iter) {
        const Natural a =
            Natural::random_bits(rng, 1 + rng.below(28)) % m;
        if (a.is_zero())
            continue;
        const Natural inv = Integer::invmod(a, m);
        EXPECT_EQ((a * inv) % m, Natural(1));
    }
    EXPECT_THROW(Integer::invmod(Natural(6), Natural(9)),
                 std::invalid_argument);
}

TEST(Integer, MillerRabinKnownValues)
{
    const std::uint64_t primes[] = {2, 3, 5, 97, 65537, 1000000007ULL};
    for (const std::uint64_t p : primes)
        EXPECT_TRUE(Integer::is_probable_prime(Natural(p))) << p;
    const std::uint64_t composites[] = {1,    4,       91,
                                        561, // Carmichael
                                        6601, 1000000008ULL};
    for (const std::uint64_t c : composites)
        EXPECT_FALSE(Integer::is_probable_prime(Natural(c))) << c;
    // Mersenne prime 2^127 - 1 and composite 2^128 + 1.
    EXPECT_TRUE(
        Integer::is_probable_prime((Natural(1) << 127) - Natural(1)));
    EXPECT_FALSE(
        Integer::is_probable_prime((Natural(1) << 128) + Natural(1)));
}

TEST(Integer, PowSigns)
{
    EXPECT_EQ(Integer::pow(Integer(-3), 3).to_int64(), -27);
    EXPECT_EQ(Integer::pow(Integer(-3), 4).to_int64(), 81);
    EXPECT_EQ(Integer::pow(Integer(7), 0).to_int64(), 1);
}
