#include "mpn/basic.hpp"
#include "mpn/mul.hpp"

#include "mpn/kernels/internal.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace camp::mpn {

// The multiply-by-limb family calls the scalar loops in
// mpn/kernels/scalar.cpp directly: no SIMD tier beats the mulx chain
// there, so it has no dispatch slot. The basecase dispatches through
// the runtime-probed kernel table (scalar / avx2 — see
// mpn/kernels/kernels.hpp).

Limb
mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    return kernels::scalar_mul_1(rp, ap, n, b);
}

Limb
addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    return kernels::scalar_addmul_1(rp, ap, n, b);
}

Limb
submul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    return kernels::scalar_submul_1(rp, ap, n, b);
}

void
mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
             const Limb* bp, std::size_t bn)
{
    CAMP_ASSERT(an >= bn && bn >= 1);
    kernels::active().mul_basecase(rp, ap, an, bp, bn);
}

void
sqr_basecase(Limb* rp, const Limb* ap, std::size_t n)
{
    CAMP_ASSERT(n >= 1);
    // Off-diagonal products a[i]*a[j] for i < j, then double, then add the
    // diagonal squares: a^2 = 2 * sum_{i<j} a_i a_j B^{i+j} + sum a_i^2.
    zero(rp, 2 * n);
    for (std::size_t i = 0; i + 1 < n; ++i)
        rp[n + i] =
            kernels::scalar_addmul_1(rp + 2 * i + 1, ap + i + 1,
                                     n - i - 1, ap[i]);
    // Double the off-diagonal part.
    Limb carry = 0;
    for (std::size_t i = 1; i < 2 * n - 1; ++i) {
        const Limb v = rp[i];
        rp[i] = (v << 1) | carry;
        carry = v >> 63;
    }
    rp[2 * n - 1] = carry;
    // Add diagonal squares.
    Limb add_carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const u128 sq = static_cast<u128>(ap[i]) * ap[i];
        u128 s = static_cast<u128>(rp[2 * i]) + static_cast<Limb>(sq) +
                 add_carry;
        rp[2 * i] = static_cast<Limb>(s);
        s = static_cast<u128>(rp[2 * i + 1]) + static_cast<Limb>(sq >> 64) +
            static_cast<Limb>(s >> 64);
        rp[2 * i + 1] = static_cast<Limb>(s);
        add_carry = static_cast<Limb>(s >> 64);
    }
    CAMP_ASSERT(add_carry == 0);
}

} // namespace camp::mpn
