/**
 * @file
 * Multiplication tests: every fast algorithm (Karatsuba, Toom-3/4/6,
 * SSA) is checked against the schoolbook reference across balanced and
 * unbalanced shapes, plus algebraic property sweeps on the dispatcher.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz_seed.hpp"
#include "mpn/basic.hpp"
#include "mpn/mul.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mpn = camp::mpn;
using mpn::Limb;

namespace {

std::vector<Limb>
random_limbs(camp::Rng& rng, std::size_t n, bool allow_zero_top = true)
{
    std::vector<Limb> v(n);
    for (auto& limb : v)
        limb = rng.next();
    if (!allow_zero_top && n > 0 && v.back() == 0)
        v.back() = 1;
    return v;
}

std::vector<Limb>
reference_mul(const std::vector<Limb>& a, const std::vector<Limb>& b)
{
    std::vector<Limb> r(a.size() + b.size());
    if (a.size() >= b.size())
        mpn::mul_basecase(r.data(), a.data(), a.size(), b.data(),
                          b.size());
    else
        mpn::mul_basecase(r.data(), b.data(), b.size(), a.data(),
                          a.size());
    return r;
}

} // namespace

TEST(MpnMul, Mul1MatchesU128)
{
    camp::Rng rng(11);
    for (int iter = 0; iter < 100; ++iter) {
        const Limb a = rng.next();
        const Limb b = rng.next();
        Limb r;
        const Limb hi = mpn::mul_1(&r, &a, 1, b);
        const camp::u128 expect = static_cast<camp::u128>(a) * b;
        EXPECT_EQ(r, static_cast<Limb>(expect));
        EXPECT_EQ(hi, static_cast<Limb>(expect >> 64));
    }
}

TEST(MpnMul, AddmulSubmulRoundTrip)
{
    camp::Rng rng(12);
    for (int iter = 0; iter < 100; ++iter) {
        const std::size_t n = 1 + rng.below(30);
        const auto a = random_limbs(rng, n);
        auto r = random_limbs(rng, n);
        const auto saved = r;
        const Limb v = rng.next();
        const Limb c1 = mpn::addmul_1(r.data(), a.data(), n, v);
        const Limb c2 = mpn::submul_1(r.data(), a.data(), n, v);
        EXPECT_EQ(c1, c2);
        EXPECT_EQ(r, saved);
    }
}

TEST(MpnMul, SquareMatchesMul)
{
    camp::Rng rng(13);
    for (std::size_t n : {1, 2, 3, 7, 15, 23}) {
        const auto a = random_limbs(rng, n);
        std::vector<Limb> sq(2 * n), m(2 * n);
        mpn::sqr_basecase(sq.data(), a.data(), n);
        mpn::mul_basecase(m.data(), a.data(), n, a.data(), n);
        EXPECT_EQ(sq, m) << "n=" << n;
    }
}

struct MulCase
{
    std::size_t an, bn;
};

class KaratsubaShapes : public ::testing::TestWithParam<MulCase>
{
};

TEST_P(KaratsubaShapes, MatchesSchoolbook)
{
    const auto [an, bn] = GetParam();
    camp::Rng rng(100 + an * 131 + bn);
    for (int iter = 0; iter < 8; ++iter) {
        const auto a = random_limbs(rng, an);
        const auto b = random_limbs(rng, bn);
        std::vector<Limb> r(an + bn);
        mpn::mul_karatsuba(r.data(), a.data(), an, b.data(), bn);
        EXPECT_EQ(r, reference_mul(a, b)) << "an=" << an << " bn=" << bn;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KaratsubaShapes,
    ::testing::Values(MulCase{4, 3}, MulCase{5, 3}, MulCase{8, 8},
                      MulCase{9, 5}, MulCase{15, 8}, MulCase{16, 16},
                      MulCase{31, 17}, MulCase{33, 32}, MulCase{50, 26},
                      MulCase{64, 64}, MulCase{65, 64}));

// gtest names each case after the raw bytes of its parameter, so the four
// bytes between `k` and `an` are an explicit member rather than padding:
// uninitialised padding made the test names change from run to run. `tag`
// only fixes the name; the test does not read it.
struct ToomCase
{
    unsigned k;
    std::uint32_t tag;
    std::size_t an, bn;
};

class ToomShapes : public ::testing::TestWithParam<ToomCase>
{
};

TEST_P(ToomShapes, MatchesSchoolbook)
{
    const auto [k, tag, an, bn] = GetParam();
    (void)tag;
    camp::Rng rng(200 + k * 1000 + an * 7 + bn);
    for (int iter = 0; iter < 5; ++iter) {
        const auto a = random_limbs(rng, an);
        const auto b = random_limbs(rng, bn);
        std::vector<Limb> r(an + bn);
        mpn::mul_toom(r.data(), a.data(), an, b.data(), bn, k);
        EXPECT_EQ(r, reference_mul(a, b))
            << "k=" << k << " an=" << an << " bn=" << bn;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ToomShapes,
    ::testing::Values(
        ToomCase{3, 0, 9, 8}, ToomCase{3, 0x5566, 12, 12},
        ToomCase{3, 0, 17, 13}, ToomCase{3, 0, 30, 25},
        ToomCase{3, 0x5566, 31, 23}, ToomCase{4, 0xFFFFFFFF, 16, 16},
        ToomCase{4, 0, 20, 17}, ToomCase{4, 0x702B5B09, 35, 28},
        ToomCase{4, 0, 40, 40}, ToomCase{6, 0x702B5B09, 36, 36},
        ToomCase{6, 0, 48, 41}, ToomCase{6, 0, 60, 55},
        ToomCase{6, 0x5566, 61, 56}));

TEST(MpnMul, ToomWithZeroBlocks)
{
    // Blocks that are entirely zero stress the normalization paths.
    for (unsigned k : {3u, 4u, 6u}) {
        const std::size_t n = 6 * k;
        std::vector<Limb> a(n, 0), b(n, 0);
        a[0] = 7;
        a[n - 1] = 9; // middle blocks zero
        b[2] = 3;
        b[n - 1] = 1;
        std::vector<Limb> r(2 * n);
        mpn::mul_toom(r.data(), a.data(), n, b.data(), n, k);
        EXPECT_EQ(r, reference_mul(a, b)) << "k=" << k;
    }
}

class SsaShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(SsaShapes, MatchesSchoolbook)
{
    const auto [an, bn] = GetParam();
    camp::Rng rng(300 + an * 3 + bn);
    const auto a = random_limbs(rng, an);
    const auto b = random_limbs(rng, bn);
    std::vector<Limb> r(an + bn);
    if (an >= bn)
        mpn::mul_ssa(r.data(), a.data(), an, b.data(), bn);
    else
        mpn::mul_ssa(r.data(), b.data(), bn, a.data(), an);
    EXPECT_EQ(r, reference_mul(a, b)) << "an=" << an << " bn=" << bn;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SsaShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{16, 5},
                      std::pair<std::size_t, std::size_t>{33, 31},
                      std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{100, 77},
                      std::pair<std::size_t, std::size_t>{128, 128},
                      std::pair<std::size_t, std::size_t>{200, 1},
                      std::pair<std::size_t, std::size_t>{257, 255}));

TEST(MpnMul, SsaLargeMatchesDispatchedMul)
{
    camp::Rng rng(14);
    const std::size_t an = 700, bn = 650;
    const auto a = random_limbs(rng, an);
    const auto b = random_limbs(rng, bn);
    std::vector<Limb> r1(an + bn), r2(an + bn);
    mpn::mul_ssa(r1.data(), a.data(), an, b.data(), bn);
    mpn::mul(r2.data(), a.data(), an, b.data(), bn);
    EXPECT_EQ(r1, r2);
}

TEST(MpnMul, DispatcherUnbalancedShapes)
{
    camp::Rng rng(15);
    const MulCase cases[] = {{1, 1},  {2, 1},   {7, 2},    {40, 3},
                             {100, 9}, {130, 64}, {300, 40}, {513, 128},
                             {257, 256}, {96, 95}};
    for (const auto& [an, bn] : cases) {
        const auto a = random_limbs(rng, an);
        const auto b = random_limbs(rng, bn);
        std::vector<Limb> r(an + bn);
        mpn::mul(r.data(), a.data(), an, b.data(), bn);
        EXPECT_EQ(r, reference_mul(a, b)) << "an=" << an << " bn=" << bn;
    }
}

TEST(MpnMul, DispatcherHandlesUnnormalizedInputs)
{
    camp::Rng rng(16);
    auto a = random_limbs(rng, 40);
    auto b = random_limbs(rng, 30);
    // Zero out top limbs: mul() must still fill the full product area.
    for (int i = 0; i < 10; ++i)
        a[39 - i] = 0;
    for (int i = 0; i < 29; ++i)
        b[29 - i] = 0;
    std::vector<Limb> r(70, 0xdeadbeef);
    mpn::mul(r.data(), a.data(), 40, b.data(), 30);
    EXPECT_EQ(r, reference_mul(a, b));
}

TEST(MpnMul, MultiplicationIsCommutativeAndDistributive)
{
    camp::Rng rng(17);
    for (int iter = 0; iter < 20; ++iter) {
        const std::size_t n = 1 + rng.below(60);
        const auto a = random_limbs(rng, n);
        const auto b = random_limbs(rng, n);
        const auto c = random_limbs(rng, n);
        // a*(b+c) == a*b + a*c
        std::vector<Limb> bc(n + 1);
        bc[n] = mpn::add_n(bc.data(), b.data(), c.data(), n);
        std::vector<Limb> lhs(2 * n + 1);
        mpn::mul(lhs.data(), bc.data(), n + 1, a.data(), n);
        std::vector<Limb> ab(2 * n), ac(2 * n), rhs(2 * n + 1, 0);
        mpn::mul(ab.data(), a.data(), n, b.data(), n);
        mpn::mul(ac.data(), a.data(), n, c.data(), n);
        rhs[2 * n] = mpn::add_n(rhs.data(), ab.data(), ac.data(), 2 * n);
        EXPECT_EQ(lhs, rhs);
    }
}

TEST(MpnMul, AlgorithmNameRespectsThresholds)
{
    const mpn::MulTuning t; // defaults
    EXPECT_STREQ(mpn::mul_algorithm_name(4, t), "schoolbook");
    EXPECT_STREQ(mpn::mul_algorithm_name(t.karatsuba, t), "karatsuba");
    EXPECT_STREQ(mpn::mul_algorithm_name(t.toom3, t), "toom3");
    EXPECT_STREQ(mpn::mul_algorithm_name(t.toom4, t), "toom4");
    EXPECT_STREQ(mpn::mul_algorithm_name(t.toom6, t), "toom6");
    EXPECT_STREQ(mpn::mul_algorithm_name(t.ssa, t), "ssa");
}

TEST(MpnMul, TuningMonotonePredicate)
{
    mpn::MulTuning t; // defaults must be monotone
    EXPECT_TRUE(mpn::mul_tuning_monotone(t));
    // The active (env-overridden) tuning passed the load-time assert;
    // re-check the predicate agrees.
    EXPECT_TRUE(mpn::mul_tuning_monotone(mpn::mul_tuning()));

    t = mpn::MulTuning{};
    t.toom3 = t.karatsuba; // collision shadows Karatsuba
    EXPECT_FALSE(mpn::mul_tuning_monotone(t));
    t = mpn::MulTuning{};
    t.ssa = t.toom6 - 1; // inversion shadows Toom-6
    EXPECT_FALSE(mpn::mul_tuning_monotone(t));
    t = mpn::MulTuning{};
    t.karatsuba = 1; // below the schoolbook floor
    EXPECT_FALSE(mpn::mul_tuning_monotone(t));
}

namespace {

/** RAII: shrink every threshold so small operands traverse the full
 * schoolbook -> karatsuba -> toom -> SSA ladder and the parallel
 * fork path engages; restores the tuning on exit. */
class CompressedTuning
{
  public:
    CompressedTuning() : saved_(mpn::mul_tuning())
    {
        auto& t = mpn::mul_tuning();
        t.karatsuba = 8;
        t.toom3 = 20;
        t.toom4 = 40;
        t.toom6 = 80;
        t.ssa = 160;
        t.parallel = 16;
        EXPECT_TRUE(mpn::mul_tuning_monotone(t));
    }
    ~CompressedTuning() { mpn::mul_tuning() = saved_; }

  private:
    mpn::MulTuning saved_;
};

} // namespace

TEST(MpnMul, FuzzParallelEqualsSerial)
{
    // The pool determinism contract (support/thread_pool.hpp): a
    // pooled multiplication is bit-identical to the serial one. 1000
    // pairs with compressed thresholds span every regime from
    // schoolbook through SSA while keeping the fork threshold low
    // enough that Karatsuba/Toom/SSA all actually fork when the pool
    // has workers (CI runs this at CAMP_THREADS=1 and 4).
    const std::uint64_t seed = fuzz_seed(0x9e3779b97f4a7c15ull);
    camp::Rng rng(seed);
    CompressedTuning compressed;
    for (int iter = 0; iter < 1000; ++iter) {
        const std::size_t an = 1 + rng.below(400);
        const std::size_t bn = 1 + rng.below(an);
        const auto a = random_limbs(rng, an);
        const auto b = random_limbs(rng, bn);
        std::vector<Limb> serial(an + bn), pooled(an + bn);
        {
            camp::support::SerialGuard guard;
            mpn::mul(serial.data(), a.data(), an, b.data(), bn);
        }
        mpn::mul(pooled.data(), a.data(), an, b.data(), bn);
        ASSERT_EQ(pooled, serial)
            << "iter=" << iter << " an=" << an << " bn=" << bn
            << " CAMP_FUZZ_SEED=" << seed;
    }
}

TEST(MpnMul, FuzzParallelEqualsSerialDefaultTuning)
{
    // Same contract at production thresholds: large operands that hit
    // the real Karatsuba/Toom-6/SSA fork points (parallel = 512 limbs).
    const std::uint64_t seed = fuzz_seed(0xc0ffee1234abcdefull);
    camp::Rng rng(seed);
    const mpn::MulTuning& t = mpn::mul_tuning();
    const std::size_t sizes[] = {t.parallel + 3, 2 * t.parallel + 17,
                                 t.ssa + 211};
    for (const std::size_t an : sizes) {
        const std::size_t bn = an - rng.below(an / 4);
        const auto a = random_limbs(rng, an);
        const auto b = random_limbs(rng, bn);
        std::vector<Limb> serial(an + bn), pooled(an + bn);
        {
            camp::support::SerialGuard guard;
            mpn::mul(serial.data(), a.data(), an, b.data(), bn);
        }
        mpn::mul(pooled.data(), a.data(), an, b.data(), bn);
        ASSERT_EQ(pooled, serial)
            << "an=" << an << " bn=" << bn
            << " CAMP_FUZZ_SEED=" << seed;
    }
}

TEST(MpnMul, SqrMatchesMulAtAllRegimes)
{
    camp::Rng rng(18);
    for (std::size_t n : {1, 5, 30, 100, 300}) {
        const auto a = random_limbs(rng, n);
        std::vector<Limb> s(2 * n), m(2 * n);
        mpn::sqr(s.data(), a.data(), n);
        mpn::mul(m.data(), a.data(), n, a.data(), n);
        EXPECT_EQ(s, m) << "n=" << n;
    }
}

TEST(MpnMul, SqrMatchesMulAcrossKaratsubaRange)
{
    // Every size from the basecase through the Karatsuba square into
    // Toom-3, with the operand shapes that steer its |a1 - a0| branch:
    // random, all-ones, a1 = a0, a zero high half and a zero low half.
    // The second pass lowers the thresholds so the square recurses at
    // least two Karatsuba levels before reaching sqr_basecase.
    const std::uint64_t seed = fuzz_seed(0x5a7a2a1ull);
    camp::Rng rng(seed);
    const auto check_sizes = [&](const char* tuning) {
        for (std::size_t n = 1; n <= 200; ++n) {
            const std::size_t m = n / 2;
            for (int shape = 0; shape < 5; ++shape) {
                std::vector<Limb> a = random_limbs(rng, n);
                if (shape == 1)
                    a.assign(n, ~Limb{0});
                else if (shape == 2 && m > 0)
                    std::copy(a.begin(), a.begin() + m, a.begin() + m);
                else if (shape == 3)
                    std::fill(a.begin() + m, a.end(), Limb{0});
                else if (shape == 4)
                    std::fill(a.begin(), a.begin() + m, Limb{0});
                std::vector<Limb> s(2 * n), p(2 * n);
                mpn::sqr(s.data(), a.data(), n);
                mpn::mul(p.data(), a.data(), n, a.data(), n);
                ASSERT_EQ(s, p) << tuning << " n=" << n
                                << " shape=" << shape
                                << " CAMP_FUZZ_SEED=" << seed;
            }
        }
    };
    check_sizes("default");
    struct RestoreTuning
    {
        mpn::MulTuning saved = mpn::mul_tuning();
        ~RestoreTuning() { mpn::mul_tuning() = saved; }
    } restore;
    mpn::mul_tuning().karatsuba = 4;
    mpn::mul_tuning().toom3 = 40;
    ASSERT_TRUE(mpn::mul_tuning_monotone(mpn::mul_tuning()));
    check_sizes("lowered");
}

TEST(MpnMul, DispatchMatchesRecordedAlgorithmAtThresholds)
{
    // Drift guard: mul_algorithm_name() (the public predictor) and the
    // dispatcher's metrics-recorded algorithm share the threshold
    // table; if one is edited without the other, boundary sizes are
    // where they disagree first. At each threshold n and at n-1, one
    // balanced product must bump the predicted algorithm's counter and
    // must never touch a counter above it (recursion only descends).
    namespace metrics = camp::support::metrics;
    static const char* const kAlgoMetric[] = {
        "mpn.mul.algo.schoolbook", "mpn.mul.algo.karatsuba",
        "mpn.mul.algo.toom3",      "mpn.mul.algo.toom4",
        "mpn.mul.algo.toom6",      "mpn.mul.algo.ssa",
    };
    constexpr int kAlgos = 6;
    const auto algo_of = [](const char* name) {
        for (int i = 0; i < kAlgos; ++i)
            if (std::string(kAlgoMetric[i]).substr(13) == name)
                return i;
        ADD_FAILURE() << "unknown algorithm name " << name;
        return 0;
    };

    const mpn::MulTuning& t = mpn::mul_tuning();
    camp::Rng rng(fuzz_seed(0xd15bada11ull));
    std::vector<std::size_t> boundaries;
    for (const std::size_t n :
         {t.karatsuba, t.toom3, t.toom4, t.toom6, t.ssa}) {
        boundaries.push_back(n);
        if (n > 0)
            boundaries.push_back(n - 1);
    }
    for (const std::size_t n : boundaries) {
        if (n < 16)
            continue; // below kObserveLimbs: dispatch is unrecorded
        const char* predicted = mpn::mul_algorithm_name(n, t);
        const int expected = algo_of(predicted);
        std::uint64_t before[kAlgos];
        for (int i = 0; i < kAlgos; ++i)
            before[i] = metrics::counter(kAlgoMetric[i]).value();

        const auto a = random_limbs(rng, n, /*allow_zero_top=*/false);
        const auto b = random_limbs(rng, n, /*allow_zero_top=*/false);
        std::vector<Limb> r(2 * n);
        {
            camp::support::SerialGuard guard;
            mpn::mul(r.data(), a.data(), n, b.data(), n);
        }

        for (int i = 0; i < kAlgos; ++i) {
            const std::uint64_t delta =
                metrics::counter(kAlgoMetric[i]).value() - before[i];
            if (i == expected)
                EXPECT_GE(delta, 1u)
                    << "n=" << n << " limbs: predicted '" << predicted
                    << "' but its counter did not move";
            else if (i > expected)
                EXPECT_EQ(delta, 0u)
                    << "n=" << n << " limbs: predicted '" << predicted
                    << "' but " << kAlgoMetric[i]
                    << " moved (dispatch drift)";
        }
    }
}
