/**
 * @file
 * Square-root tests: s = floor(sqrt(a)) iff s^2 <= a < (s+1)^2, plus
 * exact squares, boundary values, and large random sweeps.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz_seed.hpp"
#include "mpn/basic.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "mpn/sqrt.hpp"
#include "support/rng.hpp"

namespace mpn = camp::mpn;
using mpn::Limb;
using mpn::Natural;

namespace {

void
check_sqrt(const Natural& a)
{
    auto [s, r] = Natural::sqrtrem(a);
    // a == s^2 + r
    EXPECT_EQ(s * s + r, a);
    // r <= 2s  (equivalent to a < (s+1)^2)
    EXPECT_LE(r, s + s);
}

} // namespace

TEST(MpnSqrt, SmallValues)
{
    for (std::uint64_t v = 0; v < 200; ++v) {
        auto [s, r] = Natural::sqrtrem(Natural(v));
        const std::uint64_t si = s.to_uint64();
        EXPECT_LE(si * si, v);
        EXPECT_GT((si + 1) * (si + 1), v);
        EXPECT_EQ(r.to_uint64(), v - si * si);
    }
}

TEST(MpnSqrt, PerfectSquares)
{
    camp::Rng rng(31);
    for (std::size_t n : {1, 2, 3, 5, 9, 20, 64, 150}) {
        const Natural s = Natural::random_bits(rng, n * 37 + 1);
        const Natural a = s * s;
        auto [s2, r] = Natural::sqrtrem(a);
        EXPECT_EQ(s2, s) << "n=" << n;
        EXPECT_TRUE(r.is_zero());
    }
}

TEST(MpnSqrt, PerfectSquareMinusOne)
{
    camp::Rng rng(32);
    for (int iter = 0; iter < 20; ++iter) {
        const Natural s = Natural::random_bits(rng, 64 + rng.below(900));
        const Natural a = s * s - Natural(1);
        auto [s2, r] = Natural::sqrtrem(a);
        EXPECT_EQ(s2, s - Natural(1));
        EXPECT_EQ(r, (s - Natural(1)) + (s - Natural(1))); // 2(s-1)
    }
}

class SqrtBits : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SqrtBits, RandomInvariantSweep)
{
    camp::Rng rng(33 + GetParam());
    for (int iter = 0; iter < 10; ++iter)
        check_sqrt(Natural::random_bits(rng, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Bits, SqrtBits,
                         ::testing::Values(1, 7, 63, 64, 65, 127, 128,
                                           129, 255, 1000, 4096, 10001,
                                           30000));

TEST(MpnSqrt, PowersOfTwo)
{
    for (std::uint64_t e : {10u, 63u, 64u, 65u, 127u, 200u, 1001u}) {
        const Natural a = Natural(1) << e;
        auto [s, r] = Natural::sqrtrem(a);
        if (e % 2 == 0) {
            EXPECT_EQ(s, Natural(1) << (e / 2));
            EXPECT_TRUE(r.is_zero());
        } else {
            EXPECT_EQ(s * s + r, a);
            EXPECT_LE(r, s + s);
        }
    }
}

TEST(MpnSqrt, InvariantFuzzRandomAndBoundary)
{
    // >= 1000 cases of the floor-sqrt invariant s*s <= n < (s+1)^2,
    // mixing uniform random widths with the boundary family around
    // each width: 0, 1, 2^k, 2^k +- 1, perfect squares, and perfect
    // squares +- 1 (the values where Zimmermann's recursion switches
    // remainder normalization).
    const std::uint64_t seed = fuzz_seed(0x5c47f00dull);
    camp::Rng rng(seed);
    check_sqrt(Natural());         // 0
    check_sqrt(Natural(1));        // 1
    int cases = 2;
    while (cases < 1000) {
        SCOPED_TRACE("cases=" + std::to_string(cases) +
                     " seed=" + std::to_string(seed) +
                     " (replay: CAMP_FUZZ_SEED=<seed>)");
        const std::uint64_t bits = 1 + rng.below(4000);
        // Random value at this width.
        check_sqrt(Natural::random_bits(rng, bits));
        // 2^k and neighbors.
        const Natural pow2 = Natural(1) << bits;
        check_sqrt(pow2);
        check_sqrt(pow2 + Natural(1));
        check_sqrt(pow2 - Natural(1));
        // Perfect square and neighbors.
        const Natural root =
            Natural::random_bits(rng, (bits + 1) / 2 + 1);
        const Natural square = root * root;
        auto [s, r] = Natural::sqrtrem(square);
        EXPECT_EQ(s, root);
        EXPECT_TRUE(r.is_zero());
        check_sqrt(square + Natural(1));
        if (!square.is_zero())
            check_sqrt(square - Natural(1));
        cases += 7;
    }
}

TEST(MpnSqrt, AllOnesLimbsHitRootCarryPath)
{
    // Regression: a == B^n - 1 drives the Zimmermann recursion into the
    // q == B^l quotient-overflow case with s1 all ones; the clamped
    // root's low part is B^l - 1 and the remainder is exactly 2s.
    for (const std::size_t n : {4u, 5u, 8u, 12u, 33u}) {
        const Natural a = (Natural(1) << (64 * n)) - Natural(1);
        auto [s, r] = Natural::sqrtrem(a);
        EXPECT_EQ(s * s + r, a) << "n=" << n;
        EXPECT_LE(r, s + s) << "n=" << n;
        if (n % 2 == 0) {
            // Even limb count: s == B^(n/2) - 1, r == 2s.
            EXPECT_EQ(s, (Natural(1) << (32 * n)) - Natural(1));
            EXPECT_EQ(r, s + s);
        }
    }
}

TEST(MpnSqrt, KernelInterfaceRemainderSize)
{
    camp::Rng rng(34);
    const Natural a = Natural::random_bits(rng, 777);
    std::vector<Limb> s((a.size() + 1) / 2), r(a.size());
    const std::size_t rn =
        mpn::sqrtrem(s.data(), r.data(), a.data(), a.size());
    EXPECT_EQ(rn, mpn::normalized_size(r.data(), r.size()));
    // Null remainder pointer is allowed.
    std::vector<Limb> s2((a.size() + 1) / 2);
    mpn::sqrtrem(s2.data(), nullptr, a.data(), a.size());
    EXPECT_EQ(s, s2);
}
