/**
 * @file
 * Montgomery arithmetic tests: REDC correctness against plain modular
 * reduction, round trips, and the identity element.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_seed.hpp"
#include "mpn/basic.hpp"
#include "mpn/mont.hpp"
#include "mpn/natural.hpp"
#include "support/rng.hpp"

namespace mpn = camp::mpn;
using mpn::Limb;
using mpn::MontCtx;
using mpn::Natural;

namespace {

Natural
mont_mul_via_ctx(const MontCtx& ctx, const Natural& a, const Natural& b)
{
    const std::size_t nn = ctx.size();
    std::vector<Limb> av(nn, 0), bv(nn, 0), am(nn), bm(nn), rm(nn),
        r(nn);
    mpn::copy(av.data(), a.data(), a.size());
    mpn::copy(bv.data(), b.data(), b.size());
    ctx.to_mont(am.data(), av.data());
    ctx.to_mont(bm.data(), bv.data());
    ctx.mul(rm.data(), am.data(), bm.data());
    ctx.from_mont(r.data(), rm.data());
    return Natural::from_limbs(std::move(r));
}

} // namespace

TEST(MpnMont, RejectsEvenModulus)
{
    std::vector<Limb> m{42};
    EXPECT_THROW(MontCtx(m.data(), 1), std::invalid_argument);
}

TEST(MpnMont, ToFromMontRoundTrip)
{
    camp::Rng rng(41);
    for (std::uint64_t bits : {64u, 65u, 128u, 300u, 1024u}) {
        Natural m = Natural::random_bits(rng, bits);
        if (!m.is_odd())
            m += Natural(1);
        const MontCtx ctx(m.data(), m.size());
        for (int iter = 0; iter < 10; ++iter) {
            const Natural a = Natural::random_bits(rng, bits - 1) % m;
            std::vector<Limb> av(ctx.size(), 0), am(ctx.size()),
                back(ctx.size());
            mpn::copy(av.data(), a.data(), a.size());
            ctx.to_mont(am.data(), av.data());
            ctx.from_mont(back.data(), am.data());
            EXPECT_EQ(Natural::from_limbs({back.begin(), back.end()}), a);
        }
    }
}

TEST(MpnMont, MulMatchesPlainModularMul)
{
    camp::Rng rng(42);
    for (std::uint64_t bits : {64u, 127u, 256u, 1000u, 2048u}) {
        Natural m = Natural::random_bits(rng, bits);
        if (!m.is_odd())
            m += Natural(1);
        const MontCtx ctx(m.data(), m.size());
        for (int iter = 0; iter < 8; ++iter) {
            const Natural a = Natural::random_bits(rng, bits) % m;
            const Natural b = Natural::random_bits(rng, bits) % m;
            EXPECT_EQ(mont_mul_via_ctx(ctx, a, b), (a * b) % m)
                << "bits=" << bits;
        }
    }
}

TEST(MpnMont, RoundTripAndModMulFuzz)
{
    // >= 1000 cases: for random odd moduli of random width and random
    // residues a, b < m,
    //  - to_mont/from_mont round-trips a exactly, and
    //  - the full Montgomery pipeline (to_mont both, mont-mul, REDC
    //    back) equals the plain mpn modular product (a * b) mod m.
    const std::uint64_t seed = fuzz_seed(0x3070601dull);
    camp::Rng rng(seed);
    int cases = 0;
    while (cases < 1000) {
        const std::uint64_t bits = 64 + rng.below(1024);
        Natural m = Natural::random_bits(rng, bits);
        if (!m.is_odd())
            m += Natural(1);
        const MontCtx ctx(m.data(), m.size());
        for (int iter = 0; iter < 8; ++iter) {
            SCOPED_TRACE("cases=" + std::to_string(cases) +
                         " bits=" + std::to_string(bits) +
                         " seed=" + std::to_string(seed) +
                         " (replay: CAMP_FUZZ_SEED=<seed>)");
            const Natural a = Natural::random_bits(rng, bits) % m;
            const Natural b = Natural::random_bits(rng, bits) % m;
            // Round trip.
            std::vector<Limb> av(ctx.size(), 0), am(ctx.size()),
                back(ctx.size());
            mpn::copy(av.data(), a.data(), a.size());
            ctx.to_mont(am.data(), av.data());
            ctx.from_mont(back.data(), am.data());
            ASSERT_EQ(Natural::from_limbs({back.begin(), back.end()}),
                      a);
            // Modular product vs the plain mpn reference.
            ASSERT_EQ(mont_mul_via_ctx(ctx, a, b), (a * b) % m);
            cases += 2;
        }
    }
}

TEST(MpnMont, OneIsMultiplicativeIdentity)
{
    camp::Rng rng(43);
    Natural m = Natural::random_bits(rng, 320);
    if (!m.is_odd())
        m += Natural(1);
    const MontCtx ctx(m.data(), m.size());
    const Natural a = Natural::random_bits(rng, 319) % m;
    std::vector<Limb> av(ctx.size(), 0), am(ctx.size()), rm(ctx.size()),
        r(ctx.size());
    mpn::copy(av.data(), a.data(), a.size());
    ctx.to_mont(am.data(), av.data());
    // mont(a) * one() == mont(a) since one() is R mod m.
    ctx.mul(rm.data(), am.data(), ctx.one());
    ctx.from_mont(r.data(), rm.data());
    EXPECT_EQ(Natural::from_limbs({r.begin(), r.end()}), a);
}

TEST(MpnMont, SquaringChainMatchesPow)
{
    camp::Rng rng(44);
    Natural m = Natural::random_bits(rng, 200);
    if (!m.is_odd())
        m += Natural(1);
    const MontCtx ctx(m.data(), m.size());
    Natural a = Natural::random_bits(rng, 150) % m;
    // a^(2^5) via repeated Montgomery squaring.
    std::vector<Limb> x(ctx.size(), 0), xm(ctx.size()), t(ctx.size());
    mpn::copy(x.data(), a.data(), a.size());
    ctx.to_mont(xm.data(), x.data());
    for (int i = 0; i < 5; ++i) {
        ctx.mul(t.data(), xm.data(), xm.data());
        xm = t;
    }
    std::vector<Limb> r(ctx.size());
    ctx.from_mont(r.data(), xm.data());
    Natural expect = a;
    for (int i = 0; i < 5; ++i)
        expect = (expect * expect) % m;
    EXPECT_EQ(Natural::from_limbs({r.begin(), r.end()}), expect);
}

TEST(MpnMont, SqrMatchesMul)
{
    // MontCtx::sqr squares through mpn::sqr (Karatsuba square from 24
    // limbs); it must equal MontCtx::mul(a, a) bit for bit, in place
    // too, over moduli that cross the square's thresholds.
    const std::uint64_t seed = fuzz_seed(0x5b0a4e5ull);
    camp::Rng rng(seed);
    for (int cases = 0; cases < 1000; ++cases) {
        const std::size_t limbs = 1 + rng.below(80);
        Natural m = cases % 10 == 0
                        ? (Natural(1) << (64 * limbs)) - Natural(1)
                        : Natural::random_bits(rng, 64 * limbs -
                                                        rng.below(64));
        if (!m.is_odd())
            m += Natural(1);
        const MontCtx ctx(m.data(), m.size());
        const std::size_t nn = ctx.size();
        Natural a;
        switch (cases % 4) {
        case 0: a = m - Natural(1); break;
        case 1: a = Natural::random_bits(rng, 1 + rng.below(64)); break;
        default: a = Natural::random_bits(rng, m.bits()) % m; break;
        }
        if (cases % 97 == 0)
            a = Natural();
        std::vector<Limb> av(nn, 0), sq(nn), mu(nn);
        mpn::copy(av.data(), a.data(), a.size());
        ctx.sqr(sq.data(), av.data());
        ctx.mul(mu.data(), av.data(), av.data());
        ASSERT_EQ(sq, mu) << "case=" << cases << " limbs=" << nn
                          << " CAMP_FUZZ_SEED=" << seed;
        ctx.sqr(av.data(), av.data());
        ASSERT_EQ(av, mu) << "in place, case=" << cases
                          << " CAMP_FUZZ_SEED=" << seed;
    }
}
