/**
 * @file
 * Cross-TU declarations for the kernel tiers: the scalar reference
 * kernels (used by the scalar table, as the AVX2 basecase's fallback
 * below its crossover, and called directly by mpn's mul_1 family,
 * which has no table slot) and the AVX2 kernel set. Nothing here is
 * public API outside src/mpn — include mpn/kernels/kernels.hpp
 * instead.
 */
#ifndef CAMP_MPN_KERNELS_INTERNAL_HPP
#define CAMP_MPN_KERNELS_INTERNAL_HPP

#include "mpn/kernels/kernels.hpp"

// The AVX2 translation unit is compiled with a per-file -mavx2 on
// x86-64 only; everywhere else it compiles to an empty table and
// dispatch stays scalar.
#if defined(__x86_64__) || defined(_M_X64)
#define CAMP_KERNELS_X86 1
#else
#define CAMP_KERNELS_X86 0
#endif

namespace camp::mpn::kernels {

Limb scalar_mul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb scalar_addmul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb scalar_submul_1(Limb* rp, const Limb* ap, std::size_t n, Limb b);
Limb scalar_add_n(Limb* rp, const Limb* ap, const Limb* bp,
                  std::size_t n);
Limb scalar_sub_n(Limb* rp, const Limb* ap, const Limb* bp,
                  std::size_t n);
void scalar_mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                         const Limb* bp, std::size_t bn);

#if CAMP_KERNELS_X86
Limb avx2_add_n(Limb* rp, const Limb* ap, const Limb* bp,
                std::size_t n);
Limb avx2_sub_n(Limb* rp, const Limb* ap, const Limb* bp,
                std::size_t n);
void avx2_mul_basecase(Limb* rp, const Limb* ap, std::size_t an,
                       const Limb* bp, std::size_t bn);
#endif

} // namespace camp::mpn::kernels

#endif // CAMP_MPN_KERNELS_INTERNAL_HPP
