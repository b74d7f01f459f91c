/**
 * @file
 * Runtime-dispatched SIMD limb kernels: the inner primitives of the
 * mpn layer — add_n / sub_n and the schoolbook basecase — behind a
 * cpuid-probed dispatch table with the scalar code as mandatory
 * fallback.
 *
 * Tiers
 *  - scalar: the portable reference loops (always present, always the
 *    correctness oracle for the differential tests);
 *  - avx2:   256-bit AVX2 kernels (4 lanes of 64).
 *
 * Selection: the first call to active() probes the host CPU and picks
 * the widest supported tier; `CAMP_SIMD={auto,avx2,scalar}` overrides
 * (an unsupported explicit request logs a notice to stderr and falls
 * back to scalar, so a pinned CI leg never silently runs a different
 * tier than it printed).
 *
 * mul_1 / addmul_1 / submul_1 have no slot: vector versions measured
 * 0.31-0.56x of the scalar mulx chain, so the mpn entry points call
 * the scalar loops directly. A tier that measures a win for one of
 * them re-adds its slot.
 *
 * There is no batch (SIMD-across-products) kernel: serving waves hold
 * about two mixed-shape products, and each multiplies through mpn::mul
 * (DESIGN.md §13).
 *
 * Representation: the AVX2 column basecase internally uses a
 * reduced-radix carry-save form — the operands are expanded into
 * radix-2^32 digit columns and partial products are accumulated in
 * *pairs* of 64-bit per-column accumulators (low and high halves of
 * each 32x32 product), so no carry propagates during accumulation;
 * one O(n) resolution pass at the kernel boundary converts back to
 * 64-bit limbs. The Limb API is unchanged and every tier returns
 * bit-identical results (a hard invariant, fuzzed by
 * tests/test_simd_kernels.cpp).
 */
#ifndef CAMP_MPN_KERNELS_KERNELS_HPP
#define CAMP_MPN_KERNELS_KERNELS_HPP

#include <cstddef>

#include "mpn/limb.hpp"

namespace camp::mpn::kernels {

/**
 * SIMD capability tiers, ordered by preference. The values are
 * published (mpn.simd.tier gauge, bench rows), so they stay fixed.
 */
enum class Tier : int
{
    Scalar = 0,
    Avx2 = 2,
};

/** "scalar", "avx2". */
const char* tier_name(Tier tier);

/**
 * One tier's kernel set. Function contracts match the mpn entry
 * points exactly (including documented in-place/aliasing support);
 * a tier whose vectorized variant of some primitive does not pay for
 * itself on real hosts may point that slot at the scalar kernel —
 * the table is "vectorize where it wins", not "vectorize everything".
 */
struct KernelTable
{
    Tier tier = Tier::Scalar;
    const char* name = "scalar";

    Limb (*add_n)(Limb*, const Limb*, const Limb*,
                  std::size_t) = nullptr;
    Limb (*sub_n)(Limb*, const Limb*, const Limb*,
                  std::size_t) = nullptr;
    void (*mul_basecase)(Limb*, const Limb*, std::size_t, const Limb*,
                         std::size_t) = nullptr;
};

/** The scalar reference table (always available). */
const KernelTable& scalar_table();

/** The AVX2 table; nullptr when the build lacks the ISA (non-x86). */
const KernelTable* avx2_table();

/** True when the running host can execute @p tier. */
bool host_supports(Tier tier);

/** @p tier's table when built in and host-supported, else nullptr
 * (Scalar always resolves). */
const KernelTable* table_for(Tier tier);

/** The dispatched table: probed once (cpuid + CAMP_SIMD override) on
 * first use; hot-path cost afterwards is one relaxed atomic load. */
const KernelTable& active();

/** Tier of active(). */
Tier active_tier();

/**
 * Force the active table (testing/bench only: lets one process
 * compare tiers differentially without re-execing under different
 * CAMP_SIMD). Requires host support (returns false and leaves the
 * table unchanged otherwise). Not thread-safe against concurrent
 * kernel calls — switch tiers only from single-threaded phases.
 */
bool set_active_tier(Tier tier);

} // namespace camp::mpn::kernels

#endif // CAMP_MPN_KERNELS_KERNELS_HPP
