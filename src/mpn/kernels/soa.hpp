/**
 * @file
 * Struct-of-arrays batch multiplication for the small-width regime:
 * groups of same-shape independent products are transposed into
 * digit-sliced SoA form (lane = product, vector = one radix-2^32
 * digit column across lanes) and multiplied by one vertical
 * vectorized basecase, amortizing dispatch, allocation, and carry
 * logic across the whole group. The exec plane's host wave path
 * (CpuDevice::mul_batch_wave) feeds coalesced waves into the raw
 * driver below.
 * The Natural-facing soa_mul_batch is an adapter over it.
 */
#ifndef CAMP_MPN_KERNELS_SOA_HPP
#define CAMP_MPN_KERNELS_SOA_HPP

#include <cstddef>
#include <utility>

#include "mpn/natural.hpp"

namespace camp::mpn::kernels {

/**
 * Largest operand size (limbs) the SoA basecase accepts; above this
 * the per-product Karatsuba path wins and lanes fall back to it.
 */
constexpr std::size_t kSoaMaxLimbs = 64;

/**
 * Multiply @p count independent products out[i] = pairs[i].first *
 * pairs[i].second, bit-identical to operator*. An adapter over
 * soa_mul_batch_raw: it allocates one product buffer per nonzero
 * pair (each counted in mpn.alloc.count, as operator* counts its
 * own), multiplies into them through soa_mul_batch_raw, and wraps
 * them as Naturals.
 *
 * Returns the number of products computed via the SoA kernel
 * (0 when the active tier has none).
 */
std::size_t
soa_mul_batch(const std::pair<Natural, Natural>* pairs,
              std::size_t count, Natural* out);

/**
 * One product of the raw (zero-copy) batch driver: operand limb runs
 * must be normalized (no high zero limbs; zero = length 0) and @p rp
 * must point at @p an + @p bn writable limbs, disjoint from both
 * operands, whenever both operands are nonzero. The driver writes the
 * product into rp and sets @p rn to its normalized length (0 for a
 * zero product). The exec plane's wave path (Device::mul_batch_wave)
 * points rp straight into WaveBuffer result slots, so a batch
 * multiplies with no per-product allocation at all.
 */
struct SoaItem
{
    const Limb* ap = nullptr;
    std::size_t an = 0;
    const Limb* bp = nullptr;
    std::size_t bn = 0;
    Limb* rp = nullptr;
    std::size_t rn = 0; ///< out: significant product limbs
};

/**
 * The batch multiply over caller-owned storage. Items whose shapes can
 * be grouped into full SIMD-width lanes inside the eligibility window
 * run through the vertical SoA kernel of the active tier; everything
 * else (odd remainders, oversize or zero operands, scalar tier) takes
 * the ordinary per-product mpn::mul. Products are bit-identical
 * either way and land in the caller's preallocated slots. Operand
 * order within an item may be swapped in place (the product is
 * symmetric). Returns the number of products computed via the SoA
 * kernel.
 */
std::size_t soa_mul_batch_raw(SoaItem* items, std::size_t count);

} // namespace camp::mpn::kernels

#endif // CAMP_MPN_KERNELS_SOA_HPP
