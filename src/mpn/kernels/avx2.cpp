/**
 * @file
 * AVX2 tier: 4x64-bit lanes. Two kernel families:
 *
 *  - add_n / sub_n: lanewise add plus the movemask carry-select
 *    trick — generate/propagate bits are extracted to a 4-bit mask,
 *    the ripple is resolved with one scalar integer add
 *    (C = (P + (G<<1|cin)) ^ P), and the per-lane carries are
 *    re-injected from a 16-entry vector table. This replaces the
 *    per-limb flag chain with one short scalar op per 4 limbs.
 *
 *  - mul_basecase: the reduced-radix carry-save kernel. Operands are
 *    expanded to radix-2^32 digits; every 32x32 partial product is
 *    accumulated into a *pair* of 64-bit per-column sums (low and
 *    high halves separately), so columns never carry during
 *    accumulation — each term is < 2^32, leaving 32 bits of
 *    carry-save headroom per column. The accumulators of 4 adjacent
 *    columns live in registers (diagonal walk over the product
 *    trapezoid); one O(n) resolution pass converts columns back to
 *    64-bit limbs.
 *
 * Everything here is exact integer arithmetic: results are
 * bit-identical to the scalar tier by construction, and
 * tests/test_simd_kernels.cpp fuzzes that invariant.
 */
#include "mpn/kernels/internal.hpp"

#if CAMP_KERNELS_X86 && defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace camp::mpn::kernels {

namespace {

/** Below this many limbs the vector setup costs more than it saves. */
constexpr std::size_t kVecMinLimbs = 8;

/**
 * Smaller-operand floor for the column-accumulated basecase. Below
 * this the scalar mulx/adc chain wins (measured crossover ~48 limbs
 * on Skylake-class cores: pmuludq needs 4 32x32 partials plus 4 ALU
 * support ops per limb product, scalar needs one mulx + two adds);
 * the Karatsuba threshold keeps mpn_mul's own basecases below it, so
 * this path serves direct large-basecase callers only.
 */
constexpr std::size_t kBasecaseMinLimbs = 48;

/** kCarry4[m][lane] = bit `lane` of m, as an addable 64-bit value. */
alignas(32) constexpr std::uint64_t kCarry4[16][4] = {
    {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0}, {1, 1, 0, 0},
    {0, 0, 1, 0}, {1, 0, 1, 0}, {0, 1, 1, 0}, {1, 1, 1, 0},
    {0, 0, 0, 1}, {1, 0, 0, 1}, {0, 1, 0, 1}, {1, 1, 0, 1},
    {0, 0, 1, 1}, {1, 0, 1, 1}, {0, 1, 1, 1}, {1, 1, 1, 1},
};

inline __m256i
loadu(const Limb* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void
storeu(Limb* p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/** Lanewise unsigned x < y (all-ones mask where true). */
inline __m256i
lt_u64(__m256i x, __m256i y)
{
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(y, bias),
                              _mm256_xor_si256(x, bias));
}

/** Sign bits of the 4 lanes as a 4-bit mask. */
inline unsigned
lane_mask(__m256i v)
{
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(v)));
}

} // namespace

Limb
avx2_add_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    std::size_t i = 0;
    Limb carry = 0;
    if (n >= kVecMinLimbs) {
        const __m256i ones = _mm256_set1_epi64x(-1LL);
        unsigned cin = 0;
        for (; i + 4 <= n; i += 4) {
            const __m256i va = loadu(ap + i);
            const __m256i vs = _mm256_add_epi64(va, loadu(bp + i));
            const unsigned g = lane_mask(lt_u64(vs, va));
            const unsigned p =
                lane_mask(_mm256_cmpeq_epi64(vs, ones));
            const unsigned c = (p + ((g << 1) | cin)) ^ p;
            cin = (c >> 4) & 1;
            const __m256i vc = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(kCarry4[c & 15]));
            storeu(rp + i, _mm256_add_epi64(vs, vc));
        }
        carry = cin;
    }
    for (; i < n; ++i) {
        const Limb a = ap[i];
        const Limb s = a + bp[i];
        const Limb c1 = s < a;
        const Limb r = s + carry;
        carry = c1 | (r < s);
        rp[i] = r;
    }
    return carry;
}

Limb
avx2_sub_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    std::size_t i = 0;
    Limb borrow = 0;
    if (n >= kVecMinLimbs) {
        const __m256i zero = _mm256_setzero_si256();
        unsigned bin = 0;
        for (; i + 4 <= n; i += 4) {
            const __m256i va = loadu(ap + i);
            const __m256i vb = loadu(bp + i);
            const __m256i vd = _mm256_sub_epi64(va, vb);
            const unsigned g = lane_mask(lt_u64(va, vb));
            const unsigned p =
                lane_mask(_mm256_cmpeq_epi64(vd, zero));
            const unsigned c = (p + ((g << 1) | bin)) ^ p;
            bin = (c >> 4) & 1;
            const __m256i vc = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(kCarry4[c & 15]));
            storeu(rp + i, _mm256_sub_epi64(vd, vc));
        }
        borrow = bin;
    }
    for (; i < n; ++i) {
        const Limb a = ap[i];
        const Limb b = bp[i];
        const Limb d = a - b;
        const Limb b1 = a < b;
        const Limb r = d - borrow;
        borrow = b1 | (d < borrow);
        rp[i] = r;
    }
    return borrow;
}

void
avx2_mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                  const Limb* bp, std::size_t bn)
{
    CAMP_ASSERT(an >= bn && bn >= 1);
    if (bn < kBasecaseMinLimbs) {
        scalar_mul_basecase(rp, ap, an, bp, bn);
        return;
    }
    support::ScratchFrame frame;
    const std::size_t nda = 2 * an;
    const std::size_t ndb = 2 * bn;
    const std::size_t ncols = nda + ndb;

    // Radix-2^32 digits of a, padded with 4 zero digits on both ends
    // so the diagonal loads below never read out of range.
    std::uint64_t* da_store = frame.alloc(nda + 8);
    std::uint64_t* da = da_store + 4;
    for (int t = 0; t < 4; ++t) {
        da[-1 - t] = 0;
        da[nda + t] = 0;
    }
    for (std::size_t m = 0; m < an; ++m) {
        da[2 * m] = ap[m] & 0xffffffffULL;
        da[2 * m + 1] = ap[m] >> 32;
    }
    std::uint64_t* db = frame.alloc(ndb);
    for (std::size_t m = 0; m < bn; ++m) {
        db[2 * m] = bp[m] & 0xffffffffULL;
        db[2 * m + 1] = bp[m] >> 32;
    }

    const __m256i m32 = _mm256_set1_epi64x(0xffffffffLL);
    std::uint64_t carry = 0;
    std::uint64_t hi_prev = 0; // accHi of the previous column
    alignas(32) std::uint64_t col_lo[4];
    alignas(32) std::uint64_t col_hi[4];
    for (std::size_t k = 0; k < ncols; k += 4) {
        // Columns k..k+3 accumulate products da[c - j] * db[j]; the
        // union of in-range j over the 4 lanes is [jmin, jmax], and
        // the zero padding of da absorbs the per-lane edges.
        const std::size_t jmin = k + 1 > nda ? k + 1 - nda : 0;
        const std::size_t jmax = std::min(ndb - 1, k + 3);
        __m256i vlo = _mm256_setzero_si256();
        __m256i vhi = _mm256_setzero_si256();
        for (std::size_t j = jmin; j <= jmax; ++j) {
            const __m256i vb = _mm256_set1_epi64x(
                static_cast<long long>(db[j]));
            const __m256i vda = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(
                    da + static_cast<std::ptrdiff_t>(k) -
                    static_cast<std::ptrdiff_t>(j)));
            const __m256i p = _mm256_mul_epu32(vda, vb);
            vlo = _mm256_add_epi64(vlo, _mm256_and_si256(p, m32));
            vhi = _mm256_add_epi64(vhi, _mm256_srli_epi64(p, 32));
        }
        _mm256_store_si256(reinterpret_cast<__m256i*>(col_lo), vlo);
        _mm256_store_si256(reinterpret_cast<__m256i*>(col_hi), vhi);
        // Resolve the block's columns (ncols is even but not
        // necessarily a multiple of 4 — never write past rp):
        // column c = col_lo[c] + accHi[c-1] plus the running
        // radix-2^32 ripple carry.
        for (int t = 0; t < 4 && k + t < ncols; ++t) {
            const std::size_t c = k + t;
            const std::uint64_t v = col_lo[t] + hi_prev + carry;
            hi_prev = col_hi[t];
            carry = v >> 32;
            const std::uint64_t dig = v & 0xffffffffULL;
            if ((c & 1) == 0)
                rp[c / 2] = dig;
            else
                rp[c / 2] |= dig << 32;
        }
    }
    CAMP_ASSERT(carry == 0 && hi_prev == 0);
}

const KernelTable*
avx2_table()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.tier = Tier::Avx2;
        t.name = "avx2";
        // Measured on Skylake-class cores: add_n/sub_n ~2.5x; the
        // column basecase only takes over above its internal ~48-limb
        // crossover (scalar below).
        t.add_n = avx2_add_n;
        t.sub_n = avx2_sub_n;
        t.mul_basecase = avx2_mul_basecase;
        return t;
    }();
    return &table;
}

} // namespace camp::mpn::kernels

#else // !(CAMP_KERNELS_X86 && __AVX2__)

namespace camp::mpn::kernels {

const KernelTable*
avx2_table()
{
    return nullptr;
}

} // namespace camp::mpn::kernels

#endif
