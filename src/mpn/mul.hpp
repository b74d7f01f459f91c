/**
 * @file
 * Multiplication kernels: schoolbook, Karatsuba (Toom-2), generic
 * Toom-k (k = 3, 4, 6), and Schönhage–Strassen (SSA) — the full fast
 * multiplication inventory of Table I.
 *
 * All entry points write the full (an + bn)-limb product and require the
 * result area to be disjoint from both sources.
 */
#ifndef CAMP_MPN_MUL_HPP
#define CAMP_MPN_MUL_HPP

#include <cstddef>
#include <string>

#include "mpn/limb.hpp"

namespace camp::mpn {

/** rp = ap * b; returns the high limb (not stored). In-place allowed. */
Limb mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);

/** rp += ap * b; returns the carry limb out of rp[n-1]. */
Limb addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);

/** rp -= ap * b; returns the borrow limb out of rp[n-1]. */
Limb submul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);

/** Schoolbook product: rp[0..an+bn) = a * b. Requires an >= bn >= 1. */
void mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                  const Limb* bp, std::size_t bn);

/** Schoolbook square: rp[0..2n) = a^2, exploiting symmetry. */
void sqr_basecase(Limb* rp, const Limb* ap, std::size_t n);

/**
 * Karatsuba (Toom-2) product for mildly unbalanced operands:
 * requires an >= bn > an / 2.
 */
void mul_karatsuba(Limb* rp, const Limb* ap, std::size_t an,
                   const Limb* bp, std::size_t bn);

/**
 * Generic Toom-k product over evaluation points {0, 1, .., 2k-3, inf}
 * with interpolation by integer forward differences. Requires
 * k in {3, 4, 6} and an >= bn > (k - 1) * ceil(an / k) (i.e. the top
 * split block of b is nonempty).
 */
void mul_toom(Limb* rp, const Limb* ap, std::size_t an,
              const Limb* bp, std::size_t bn, unsigned k);

/**
 * Schönhage–Strassen product via negacyclic FFT over Z/(2^K + 1).
 * Requires an >= bn >= 1.
 */
void mul_ssa(Limb* rp, const Limb* ap, std::size_t an,
             const Limb* bp, std::size_t bn);

/**
 * Algorithm-selection thresholds in limbs, mirroring GMP's compile-time
 * tuned thresholds (paper §V-C: MPApca retunes these for the hardware
 * backend, which bench/fig11_mul_sweep exercises).
 */
struct MulTuning
{
    std::size_t karatsuba = 24;  ///< below: schoolbook
    std::size_t toom3 = 96;      ///< below: Karatsuba
    std::size_t toom4 = 288;     ///< below: Toom-3
    std::size_t toom6 = 800;     ///< below: Toom-4
    std::size_t ssa = 3200;      ///< below: Toom-6, above: SSA
    /** Smaller-operand size (limbs) from which the recursive kernels
     * fork their independent sub-multiplications onto the global
     * thread pool. Forking never changes results, only placement. */
    std::size_t parallel = 512;
};

/**
 * True iff the algorithm thresholds are strictly increasing
 * (karatsuba < toom3 < toom4 < toom6 < ssa) and every fast algorithm
 * engages above the schoolbook floor. Dispatch correctness does not
 * depend on monotone thresholds, but a non-monotone set silently
 * shadows algorithms, so mul_tuning() asserts this at load and
 * tuning experiments should re-check after overriding.
 */
bool mul_tuning_monotone(const MulTuning& tuning);

/**
 * @p tuning with the environment overrides
 * `<prefix>{KARATSUBA,TOOM3,TOOM4,TOOM6,SSA,PARALLEL}` (positive limb
 * counts) applied. Parsing goes through support::env, so a junk,
 * empty, or out-of-range value throws camp::InvalidArgument naming
 * the variable instead of being ignored or truncated.
 */
MulTuning env_tuning(const std::string& prefix, MulTuning tuning);

/**
 * Active thresholds for the dispatching mul(). First use applies
 * environment overrides CAMP_MUL_THRESH_KARATSUBA / _TOOM3 / _TOOM4 /
 * _TOOM6 / _SSA / _PARALLEL (env_tuning), then debug-asserts
 * mul_tuning_monotone.
 */
MulTuning& mul_tuning();

/** True when a kernel at smaller-operand size @p bn should fork its
 * sub-products: above the parallel threshold, pool has workers, and
 * no support::SerialGuard is active on this thread. */
bool mul_should_fork(std::size_t bn);

/** Names of the regime mul() would pick for a balanced n-limb product. */
const char* mul_algorithm_name(std::size_t n, const MulTuning& tuning);

/**
 * General product rp[0..an+bn) = a * b with algorithm dispatch and
 * block decomposition for heavily unbalanced operands.
 * Requires an >= bn >= 1.
 */
void mul(Limb* rp, const Limb* ap, std::size_t an,
         const Limb* bp, std::size_t bn);

/**
 * rp[0..2n) = a^2: the schoolbook square below the Karatsuba
 * threshold, a Karatsuba square recursing through sqr below Toom-3,
 * and mul(a, a) at and above it. rp must not overlap ap.
 */
void sqr(Limb* rp, const Limb* ap, std::size_t n);

} // namespace camp::mpn

#endif // CAMP_MPN_MUL_HPP
