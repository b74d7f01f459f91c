/**
 * @file
 * Scalar reference kernels — the exact loops the mpn layer shipped
 * with before the dispatch table existed, moved here verbatim so they
 * remain the mandatory fallback tier and the oracle every SIMD tier
 * is differentially fuzzed against. mul_1 / addmul_1 / submul_1 have
 * no table slot; mpn calls them directly.
 */
#include "mpn/kernels/internal.hpp"

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace camp::mpn::kernels {

Limb
scalar_mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const u128 p = static_cast<u128>(ap[i]) * b + carry;
        rp[i] = static_cast<Limb>(p);
        carry = static_cast<Limb>(p >> 64);
    }
    return carry;
}

Limb
scalar_addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const u128 p = static_cast<u128>(ap[i]) * b + rp[i] + carry;
        rp[i] = static_cast<Limb>(p);
        carry = static_cast<Limb>(p >> 64);
    }
    return carry;
}

Limb
scalar_submul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const u128 p = static_cast<u128>(ap[i]) * b + borrow;
        const Limb lo = static_cast<Limb>(p);
        borrow = static_cast<Limb>(p >> 64) + (rp[i] < lo);
        rp[i] -= lo;
    }
    return borrow;
}

Limb
scalar_add_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
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
scalar_sub_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
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
scalar_mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                    const Limb* bp, std::size_t bn)
{
    CAMP_ASSERT(an >= bn && bn >= 1);
    rp[an] = scalar_mul_1(rp, ap, an, bp[0]);
    for (std::size_t j = 1; j < bn; ++j)
        rp[an + j] = scalar_addmul_1(rp + j, ap, an, bp[j]);
}

const KernelTable&
scalar_table()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.tier = Tier::Scalar;
        t.name = "scalar";
        t.add_n = scalar_add_n;
        t.sub_n = scalar_sub_n;
        t.mul_basecase = scalar_mul_basecase;
        return t;
    }();
    return table;
}

} // namespace camp::mpn::kernels
