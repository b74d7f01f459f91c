/**
 * @file
 * Montgomery reduction [47] — the modular-multiplication kernel the
 * paper's RSA benchmark is built from (§V-C lists Montgomery reduction
 * among MPApca's high-level operators).
 */
#ifndef CAMP_MPN_MONT_HPP
#define CAMP_MPN_MONT_HPP

#include <cstddef>
#include <vector>

#include "mpn/limb.hpp"

namespace camp::mpn {

/**
 * Precomputed context for Montgomery arithmetic modulo an odd modulus m
 * of nn limbs, with R = B^nn. Immutable after construction: every
 * operation takes its temporaries from the calling thread's scratch
 * arena, so one const context is safe to share across threads.
 */
class MontCtx
{
  public:
    /** @param mp odd modulus, @param mn its normalized size (>= 1). */
    MontCtx(const Limb* mp, std::size_t mn);

    std::size_t size() const { return nn_; }
    const Limb* modulus() const { return m_.data(); }

    /**
     * rp = REDC(tp) = tp * R^-1 mod m, consuming tp (2 nn limbs,
     * modified). rp must hold nn limbs and not alias tp.
     */
    void redc(Limb* rp, Limb* tp) const;

    /**
     * rp = a * b * R^-1 mod m; all operands nn limbs. The double-width
     * product lives in the calling thread's scratch arena, so rp may
     * alias ap or bp and a call allocates nothing in steady state.
     */
    void mul(Limb* rp, const Limb* ap, const Limb* bp) const;

    /** rp = a^2 * R^-1 mod m: mul(rp, ap, ap) with the product from
     * mpn::sqr, announced as OpKind::Sqr. */
    void sqr(Limb* rp, const Limb* ap) const;

    /** rp = to_mont(a) = a * R mod m. */
    void to_mont(Limb* rp, const Limb* ap) const;

    /** rp = from_mont(a) = a * R^-1 mod m. */
    void from_mont(Limb* rp, const Limb* ap) const;

    /** Montgomery form of 1 (i.e. R mod m). */
    const Limb* one() const { return r1_.data(); }

  private:
    std::size_t nn_;
    std::vector<Limb> m_;
    std::vector<Limb> r1_; ///< R mod m
    std::vector<Limb> r2_; ///< R^2 mod m
    Limb n0inv_;           ///< -m^-1 mod B
};

} // namespace camp::mpn

#endif // CAMP_MPN_MONT_HPP
