#include "mpn/mont.hpp"

#include <stdexcept>

#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "mpn/ophook.hpp"
#include "support/assert.hpp"
#include "support/opcache.hpp"
#include "support/thread_pool.hpp"

namespace camp::mpn {

MontCtx::MontCtx(const Limb* mp, std::size_t mn)
{
    mn = normalized_size(mp, mn);
    if (mn == 0 || (mp[0] & 1) == 0)
        throw std::invalid_argument("MontCtx: modulus must be odd");
    nn_ = mn;
    m_.assign(mp, mp + mn);

    // Montgomery constants depend only on the modulus, and a serving
    // session reuses the same modulus across many modexps — the
    // inverse cache turns the R / R^2 divisions into a verified hit.
    support::OpCache& cache = support::OpCache::global();
    const bool use_cache = cache.enabled();
    support::OpKey key;
    if (use_cache) {
        key = support::make_key(support::OpTag::Montgomery, m_);
        if (const auto hit = cache.lookup(key)) {
            // Copy-on-return: the cached limbs stay immutable.
            r1_ = hit->parts[0];
            r2_ = hit->parts[1];
            n0inv_ = hit->scalars[0];
            return;
        }
    }

    // -m^-1 mod B by Newton iteration (quadratic convergence from the
    // 3-bit-correct seed m itself, since m * m == 1 mod 8 for odd m).
    Limb inv = m_[0];
    for (int i = 0; i < 5; ++i)
        inv *= 2 - m_[0] * inv;
    CAMP_ASSERT(inv * m_[0] == 1);
    n0inv_ = static_cast<Limb>(0) - inv;

    // R mod m and R^2 mod m via explicit division.
    std::vector<Limb> pow(2 * nn_ + 1, 0), q(2 * nn_ + 2, 0);
    r1_.assign(nn_, 0);
    pow[nn_] = 1; // B^nn
    divrem(q.data(), r1_.data(), pow.data(), nn_ + 1, m_.data(), nn_);
    // R^2 = (R mod m)^2 mod m.
    std::vector<Limb> sqv(2 * nn_, 0);
    camp::mpn::sqr(sqv.data(), r1_.data(), nn_);
    r2_.assign(nn_, 0);
    const std::size_t sn = normalized_size(sqv.data(), 2 * nn_);
    if (sn >= nn_) {
        divrem(q.data(), r2_.data(), sqv.data(), sn, m_.data(), nn_);
    } else {
        copy(r2_.data(), sqv.data(), sn);
    }

    if (use_cache) {
        support::OpValue value;
        value.parts.push_back(r1_);
        value.parts.push_back(r2_);
        value.scalars.push_back(n0inv_);
        cache.insert(std::move(key), std::move(value));
    }
}

void
MontCtx::redc(Limb* rp, Limb* tp) const
{
    // REDC is a full multiply-accumulate pass over the modulus —
    // announce it as a kernel multiplication (it runs on the
    // accelerator in the MPApca mapping, paper §V-C "Montgomery
    // reduction ... composed with ... multiplication").
    const OpScope scope(OpKind::Mul, nn_ * 64, nn_ * 64);
    // Word-by-word REDC: after nn rounds tp[nn..2nn) + carries is the
    // result, conditionally reduced below m.
    Limb carry = 0;
    for (std::size_t i = 0; i < nn_; ++i) {
        const Limb u = tp[i] * n0inv_;
        const Limb c = addmul_1(tp + i, m_.data(), nn_, u);
        // Accumulate the per-round carry into the running top.
        const Limb t = tp[i + nn_] + carry;
        const Limb c1 = t < carry;
        const Limb t2 = t + c;
        carry = c1 + (t2 < c);
        tp[i + nn_] = t2;
    }
    // Result = tp[nn..2nn) with a possible extra carry bit.
    if (carry || cmp_n(tp + nn_, m_.data(), nn_) >= 0) {
        const Limb borrow = sub_n(rp, tp + nn_, m_.data(), nn_);
        CAMP_ASSERT(borrow == carry);
    } else {
        copy(rp, tp + nn_, nn_);
    }
}

void
MontCtx::mul(Limb* rp, const Limb* ap, const Limb* bp) const
{
    const std::size_t an = normalized_size(ap, nn_);
    const std::size_t bn = normalized_size(bp, nn_);
    if (an == 0 || bn == 0) {
        zero(rp, nn_);
        return;
    }
    support::ScratchFrame scratch;
    Limb* t = scratch.alloc(2 * nn_);
    {
        const OpScope scope(OpKind::Mul, an * 64, bn * 64);
        if (an >= bn)
            camp::mpn::mul(t, ap, an, bp, bn);
        else
            camp::mpn::mul(t, bp, bn, ap, an);
    }
    zero(t + an + bn, 2 * nn_ - an - bn);
    redc(rp, t);
}

void
MontCtx::sqr(Limb* rp, const Limb* ap) const
{
    const std::size_t an = normalized_size(ap, nn_);
    if (an == 0) {
        zero(rp, nn_);
        return;
    }
    support::ScratchFrame scratch;
    Limb* t = scratch.alloc(2 * nn_);
    {
        const OpScope scope(OpKind::Sqr, an * 64, an * 64);
        camp::mpn::sqr(t, ap, an);
    }
    zero(t + 2 * an, 2 * (nn_ - an));
    redc(rp, t);
}

void
MontCtx::to_mont(Limb* rp, const Limb* ap) const
{
    mul(rp, ap, r2_.data());
}

void
MontCtx::from_mont(Limb* rp, const Limb* ap) const
{
    support::ScratchFrame scratch;
    Limb* t = scratch.alloc(2 * nn_);
    copy(t, ap, nn_);
    zero(t + nn_, nn_);
    redc(rp, t);
}

} // namespace camp::mpn
