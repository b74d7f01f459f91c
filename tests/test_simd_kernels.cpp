/**
 * @file
 * Differential fuzz of the runtime-dispatched SIMD limb kernels: every
 * vectorized primitive is compared case-by-case against the scalar
 * reference (the oracle), across random operands and the boundary
 * shapes carry bugs hide in — all-ones limbs, generate/propagate worst
 * cases, n = 0/1, unaligned vector tails, aliased rp/ap. The public
 * mul_1 / addmul_1 / submul_1 (scalar loops with no table slot) are
 * checked against a radix-2^32 reference written here. A second
 * layer asserts the hard bit-identity invariant end to end: full
 * mpn_mul and Device::mul_batch produce identical bits under every
 * CAMP_SIMD tier the host supports.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "exec/registry.hpp"
#include "fuzz_seed.hpp"
#include "mpn/basic.hpp"
#include "mpn/kernels/internal.hpp"
#include "mpn/kernels/kernels.hpp"
#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "support/rng.hpp"

namespace mpn = camp::mpn;
namespace kernels = camp::mpn::kernels;
using camp::Rng;
using mpn::Limb;
using mpn::Natural;

namespace {

/** Restores the dispatched tier on scope exit (tests switch tiers). */
class TierGuard
{
  public:
    TierGuard() : saved_(kernels::active_tier()) {}
    ~TierGuard() { kernels::set_active_tier(saved_); }

  private:
    kernels::Tier saved_;
};

/**
 * One fuzz operand: mostly random limbs, with boundary patterns mixed
 * in (all-ones rows force maximal carries; zeros force propagate-only
 * blocks; 0x...fff/0x8000... force generate/propagate interleaving).
 */
std::vector<Limb>
fuzz_limbs(Rng& rng, std::size_t n)
{
    std::vector<Limb> v(n);
    const std::uint64_t mode = rng.below(5);
    for (std::size_t i = 0; i < n; ++i) {
        switch (mode) {
        case 0:
            v[i] = rng.next();
            break;
        case 1:
            v[i] = ~Limb{0}; // carry worst case
            break;
        case 2:
            v[i] = rng.below(2) ? ~Limb{0} : 0;
            break;
        case 3:
            v[i] = rng.below(2) ? ~Limb{0} : rng.next();
            break;
        default:
            v[i] = Limb{1} << rng.below(64);
            break;
        }
    }
    return v;
}

/** Scalars that stress the mid-word (radix-2^32 digit) carries. */
Limb
fuzz_scalar(Rng& rng)
{
    switch (rng.below(4)) {
    case 0:
        return rng.next();
    case 1:
        return ~Limb{0};
    case 2:
        return 0xffffffffULL;
    default:
        return Limb{1} << rng.below(64);
    }
}

/**
 * Radix-2^32 reference for the multiply-by-limb family: r = x + a * b
 * (or x - a * b when @p subtract) over n = a.size() limbs, returning
 * the carry (borrow) limb. x must hold n limbs (zeros for mul_1). Every
 * intermediate is a 32-bit digit product plus two digits, which fits a
 * 64-bit word, so no u128 carry logic is shared with the scalar loops.
 */
Limb
ref_mul_1_op(std::vector<Limb>& r, const std::vector<Limb>& x,
             const std::vector<Limb>& a, Limb b, bool subtract)
{
    const auto digit = [](const std::vector<Limb>& v, std::size_t i) {
        return (v[i / 2] >> (32 * (i % 2))) & 0xffffffffULL;
    };
    const std::size_t nd = 2 * a.size();
    // p = a * b as nd + 2 digits, schoolbook over b's two digits.
    std::vector<std::uint64_t> p(nd + 2, 0);
    for (std::size_t j = 0; j < 2; ++j) {
        const std::uint64_t bd = (b >> (32 * j)) & 0xffffffffULL;
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < nd; ++i) {
            const std::uint64_t t = digit(a, i) * bd + p[i + j] + carry;
            p[i + j] = t & 0xffffffffULL;
            carry = t >> 32;
        }
        p[nd + j] = carry;
    }
    // r = x +/- (p mod B^n); the carry (borrow) bit out of the top
    // digit joins p's high limb.
    r.assign(a.size(), 0);
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < nd; ++i) {
        const std::uint64_t t = subtract ? digit(x, i) - p[i] - c
                                         : digit(x, i) + p[i] + c;
        r[i / 2] |= (t & 0xffffffffULL) << (32 * (i % 2));
        c = subtract ? t >> 63 : t >> 32;
    }
    return (p[nd] | (p[nd + 1] << 32)) + c;
}

struct NamedKernels
{
    const char* name;
    Limb (*add_n)(Limb*, const Limb*, const Limb*, std::size_t);
    Limb (*sub_n)(Limb*, const Limb*, const Limb*, std::size_t);
    void (*mul_basecase)(Limb*, const Limb*, std::size_t, const Limb*,
                         std::size_t);
};

/**
 * Every compiled vectorized kernel set the host can run, called
 * directly rather than through active(), so a CAMP_SIMD=scalar pin
 * still fuzzes the vector bodies.
 */
std::vector<NamedKernels>
vector_kernel_sets()
{
    std::vector<NamedKernels> sets;
#if defined(__x86_64__) || defined(_M_X64)
    if (kernels::host_supports(kernels::Tier::Avx2) &&
        kernels::avx2_table() != nullptr)
        sets.push_back({"avx2", kernels::avx2_add_n, kernels::avx2_sub_n,
                        kernels::avx2_mul_basecase});
#endif
    return sets;
}

/** Sizes cover sub-vector, exact-vector, and ragged-tail lengths. */
std::size_t
fuzz_size(Rng& rng)
{
    switch (rng.below(6)) {
    case 0:
        return 0;
    case 1:
        return 1;
    case 2:
        return 1 + rng.below(8); // below every vector threshold
    case 3:
        return 8 + rng.below(8); // around the kVecMinLimbs gate
    default:
        return 1 + rng.below(200);
    }
}

std::vector<kernels::Tier>
supported_tiers()
{
    std::vector<kernels::Tier> tiers{kernels::Tier::Scalar};
    if (kernels::table_for(kernels::Tier::Avx2) != nullptr)
        tiers.push_back(kernels::Tier::Avx2);
    return tiers;
}

} // namespace

TEST(SimdKernels, DispatchReportsSupportedTier)
{
    const kernels::KernelTable& table = kernels::active();
    EXPECT_NE(table.add_n, nullptr);
    EXPECT_NE(table.mul_basecase, nullptr);
    EXPECT_TRUE(kernels::host_supports(table.tier));
    EXPECT_STREQ(kernels::tier_name(table.tier), table.name);
    // Scalar is always forceable; the guard restores the probed tier.
    TierGuard guard;
    ASSERT_TRUE(kernels::set_active_tier(kernels::Tier::Scalar));
    EXPECT_EQ(kernels::active_tier(), kernels::Tier::Scalar);
}

TEST(SimdKernels, Mul1DifferentialFuzz)
{
    Rng rng(fuzz_seed(0x51D0001));
    for (int iter = 0; iter < 1200; ++iter) {
        const std::size_t n = fuzz_size(rng);
        const std::vector<Limb> a = fuzz_limbs(rng, n);
        const Limb b = fuzz_scalar(rng);
        std::vector<Limb> want, got(n);
        const Limb want_c =
            ref_mul_1_op(want, std::vector<Limb>(n), a, b, false);
        const Limb got_c = mpn::mul_1(got.data(), a.data(), n, b);
        ASSERT_EQ(want, got) << "n=" << n << " iter=" << iter;
        ASSERT_EQ(want_c, got_c) << "n=" << n;
        if (n != 0) {
            // Aliased rp == ap (documented in-place form).
            std::vector<Limb> in_place = a;
            const Limb alias_c =
                mpn::mul_1(in_place.data(), in_place.data(), n, b);
            ASSERT_EQ(want, in_place) << "aliased n=" << n;
            ASSERT_EQ(want_c, alias_c);
        }
    }
}

TEST(SimdKernels, Addmul1DifferentialFuzz)
{
    Rng rng(fuzz_seed(0x51D0002));
    for (int iter = 0; iter < 1200; ++iter) {
        const std::size_t n = fuzz_size(rng);
        const std::vector<Limb> a = fuzz_limbs(rng, n);
        const std::vector<Limb> r0 = fuzz_limbs(rng, n);
        const Limb b = fuzz_scalar(rng);
        std::vector<Limb> want, got = r0;
        const Limb want_c = ref_mul_1_op(want, r0, a, b, false);
        const Limb got_c = mpn::addmul_1(got.data(), a.data(), n, b);
        ASSERT_EQ(want, got) << "n=" << n << " iter=" << iter;
        ASSERT_EQ(want_c, got_c) << "n=" << n;
        if (n != 0) {
            // rp aliased to ap: rp += rp * b.
            std::vector<Limb> want_alias, got_alias = a;
            const Limb wc = ref_mul_1_op(want_alias, a, a, b, false);
            const Limb gc = mpn::addmul_1(got_alias.data(),
                                          got_alias.data(), n, b);
            ASSERT_EQ(want_alias, got_alias) << "aliased n=" << n;
            ASSERT_EQ(wc, gc);
        }
    }
}

TEST(SimdKernels, Submul1DifferentialFuzz)
{
    Rng rng(fuzz_seed(0x51D0003));
    for (int iter = 0; iter < 1200; ++iter) {
        const std::size_t n = fuzz_size(rng);
        const std::vector<Limb> a = fuzz_limbs(rng, n);
        const std::vector<Limb> r0 = fuzz_limbs(rng, n);
        const Limb b = fuzz_scalar(rng);
        std::vector<Limb> want, got = r0;
        const Limb want_c = ref_mul_1_op(want, r0, a, b, true);
        const Limb got_c = mpn::submul_1(got.data(), a.data(), n, b);
        ASSERT_EQ(want, got) << "n=" << n << " iter=" << iter;
        ASSERT_EQ(want_c, got_c) << "n=" << n;
    }
}

TEST(SimdKernels, AddNDifferentialFuzz)
{
    const auto sets = vector_kernel_sets();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0004));
    for (const NamedKernels& set : sets) {
        for (int iter = 0; iter < 1500; ++iter) {
            const std::size_t n = fuzz_size(rng);
            const std::vector<Limb> a = fuzz_limbs(rng, n);
            const std::vector<Limb> b = fuzz_limbs(rng, n);
            std::vector<Limb> want(n), got(n);
            const Limb want_c = kernels::scalar_add_n(
                want.data(), a.data(), b.data(), n);
            const Limb got_c =
                set.add_n(got.data(), a.data(), b.data(), n);
            ASSERT_EQ(want, got) << set.name << " n=" << n
                                 << " iter=" << iter;
            ASSERT_EQ(want_c, got_c) << set.name << " n=" << n;
            if (n != 0) {
                // In-place rp == ap (the dominant caller shape).
                std::vector<Limb> acc = a;
                const Limb alias_c = set.add_n(acc.data(), acc.data(),
                                               b.data(), n);
                ASSERT_EQ(want, acc)
                    << set.name << " aliased n=" << n;
                ASSERT_EQ(want_c, alias_c);
            }
        }
    }
}

TEST(SimdKernels, SubNDifferentialFuzz)
{
    const auto sets = vector_kernel_sets();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0005));
    for (const NamedKernels& set : sets) {
        for (int iter = 0; iter < 1500; ++iter) {
            const std::size_t n = fuzz_size(rng);
            const std::vector<Limb> a = fuzz_limbs(rng, n);
            const std::vector<Limb> b = fuzz_limbs(rng, n);
            std::vector<Limb> want(n), got(n);
            const Limb want_c = kernels::scalar_sub_n(
                want.data(), a.data(), b.data(), n);
            const Limb got_c =
                set.sub_n(got.data(), a.data(), b.data(), n);
            ASSERT_EQ(want, got) << set.name << " n=" << n
                                 << " iter=" << iter;
            ASSERT_EQ(want_c, got_c) << set.name << " n=" << n;
            if (n != 0) {
                std::vector<Limb> acc = a;
                const Limb alias_c = set.sub_n(acc.data(), acc.data(),
                                               b.data(), n);
                ASSERT_EQ(want, acc)
                    << set.name << " aliased n=" << n;
                ASSERT_EQ(want_c, alias_c);
            }
        }
    }
}

TEST(SimdKernels, MulBasecaseDifferentialFuzz)
{
    const auto sets = vector_kernel_sets();
    if (sets.empty())
        GTEST_SKIP() << "host has no SIMD kernel tier";
    Rng rng(fuzz_seed(0x51D0006));
    for (const NamedKernels& set : sets) {
        for (int iter = 0; iter < 1000; ++iter) {
            // Cover both sides of the reduced-radix crossover, where
            // the column kernel and the scalar fallback meet.
            const std::size_t bn = 1 + rng.below(80);
            const std::size_t an = bn + rng.below(40);
            const std::vector<Limb> a = fuzz_limbs(rng, an);
            const std::vector<Limb> b = fuzz_limbs(rng, bn);
            std::vector<Limb> want(an + bn), got(an + bn);
            kernels::scalar_mul_basecase(want.data(), a.data(), an,
                                         b.data(), bn);
            set.mul_basecase(got.data(), a.data(), an, b.data(), bn);
            ASSERT_EQ(want, got) << set.name << " an=" << an
                                 << " bn=" << bn << " iter=" << iter;
        }
    }
}

TEST(SimdKernels, FullMulBitIdenticalAcrossTiers)
{
    const auto tiers = supported_tiers();
    if (tiers.size() < 2)
        GTEST_SKIP() << "host supports only the scalar tier";
    TierGuard guard;
    Rng rng(fuzz_seed(0x51D0008));
    for (int iter = 0; iter < 40; ++iter) {
        const Natural a =
            Natural::random_bits(rng, 1 + rng.below(1 << 15));
        const Natural b =
            Natural::random_bits(rng, 1 + rng.below(1 << 15));
        ASSERT_TRUE(kernels::set_active_tier(kernels::Tier::Scalar));
        const Natural want = a * b;
        for (const kernels::Tier tier : tiers) {
            ASSERT_TRUE(kernels::set_active_tier(tier));
            ASSERT_EQ(a * b, want)
                << kernels::tier_name(tier) << " iter=" << iter;
        }
    }
}

TEST(SimdKernels, DeviceMulBatchBitIdenticalAcrossTiers)
{
    const auto tiers = supported_tiers();
    if (tiers.size() < 2)
        GTEST_SKIP() << "host supports only the scalar tier";
    TierGuard guard;
    Rng rng(fuzz_seed(0x51D0009));
    std::vector<std::pair<Natural, Natural>> pairs;
    for (int i = 0; i < 48; ++i) {
        const std::uint64_t bits =
            i % 3 == 0 ? 2048 : 1 + rng.below(4096);
        pairs.emplace_back(Natural::random_bits(rng, bits),
                           Natural::random_bits(rng, bits));
    }
    ASSERT_TRUE(kernels::set_active_tier(kernels::Tier::Scalar));
    const camp::sim::BatchResult want =
        camp::exec::make_device("cpu")->mul_batch(pairs);
    for (const kernels::Tier tier : tiers) {
        ASSERT_TRUE(kernels::set_active_tier(tier));
        const camp::sim::BatchResult got =
            camp::exec::make_device("cpu")->mul_batch(pairs);
        ASSERT_EQ(got.products.size(), want.products.size());
        for (std::size_t i = 0; i < pairs.size(); ++i)
            ASSERT_EQ(got.products[i], want.products[i])
                << kernels::tier_name(tier) << " i=" << i;
    }
}
