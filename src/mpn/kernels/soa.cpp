/**
 * @file
 * SoA batch driver: shape-group independent products, transpose full
 * groups into digit-sliced lanes, run the active tier's vertical
 * carry-save kernel, and resolve each lane back to normalized limbs.
 * The transpose/resolution passes are O(n) per lane; the O(n^2)
 * column work is what vectorizes across lanes.
 */
#include "mpn/kernels/soa.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "mpn/kernels/kernels.hpp"
#include "mpn/mul.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace camp::mpn::kernels {

namespace {

/**
 * Multiply one full group of W same-shape products via the vertical
 * kernel, writing the full (an + bn)-limb product of lane l into
 * rps[l]. aps/bps/rps are per-lane limb runs with an >= bn >= 1,
 * an <= kSoaMaxLimbs, every result area disjoint from every operand.
 */
void
soa_group_core(const KernelTable& table, std::size_t an, std::size_t bn,
               const Limb* const* aps, const Limb* const* bps,
               Limb* const* rps)
{
    const std::size_t w = table.soa_width;
    const std::size_t nda = 2 * an;
    const std::size_t ndb = 2 * bn;
    const std::size_t ncols = nda + ndb;

    support::ScratchFrame frame;
    std::uint64_t* da = frame.alloc(nda * w);
    std::uint64_t* db = frame.alloc(ndb * w);
    std::uint64_t* acc_lo = frame.alloc(ncols * w);
    std::uint64_t* acc_hi = frame.alloc(ncols * w);

    // Transpose to digit-major SoA: da[d * w + lane] is lane's
    // radix-2^32 digit d.
    for (std::size_t lane = 0; lane < w; ++lane) {
        for (std::size_t m = 0; m < an; ++m) {
            const Limb limb = aps[lane][m];
            da[(2 * m) * w + lane] = limb & 0xffffffffULL;
            da[(2 * m + 1) * w + lane] = limb >> 32;
        }
        for (std::size_t m = 0; m < bn; ++m) {
            const Limb limb = bps[lane][m];
            db[(2 * m) * w + lane] = limb & 0xffffffffULL;
            db[(2 * m + 1) * w + lane] = limb >> 32;
        }
    }

    table.soa_vertical(acc_lo, acc_hi, da, nda, db, ndb);

    // Resolve: column c of lane l is acc_lo[c][l] + acc_hi[c-1][l]
    // plus the lane's radix-2^32 ripple carry; pack digit pairs back
    // into limbs. Lanes are independent, so the compiler is free to
    // vectorize this loop too.
    std::uint64_t* carry = frame.alloc(w);
    std::uint64_t* hi_prev = frame.alloc(w);
    std::memset(carry, 0, w * sizeof(*carry));
    std::memset(hi_prev, 0, w * sizeof(*hi_prev));
    for (std::size_t lane = 0; lane < w; ++lane)
        std::memset(rps[lane], 0, (an + bn) * sizeof(Limb));
    for (std::size_t c = 0; c < ncols; ++c) {
        for (std::size_t lane = 0; lane < w; ++lane) {
            const std::uint64_t v =
                acc_lo[c * w + lane] + hi_prev[lane] + carry[lane];
            hi_prev[lane] = acc_hi[c * w + lane];
            carry[lane] = v >> 32;
            const std::uint64_t dig = v & 0xffffffffULL;
            rps[lane][c / 2] |= dig << (32 * (c & 1));
        }
    }
    for (std::size_t lane = 0; lane < w; ++lane)
        CAMP_ASSERT(carry[lane] == 0 && hi_prev[lane] == 0);
}

} // namespace

std::size_t
soa_mul_batch_raw(SoaItem* items, std::size_t count)
{
    const KernelTable& table = active();
    const std::size_t w = table.soa_width;

    // Canonical operand order (the product is symmetric): ap is the
    // larger run, so shapes group exactly like the Natural driver's.
    for (std::size_t i = 0; i < count; ++i)
        if (items[i].an < items[i].bn) {
            std::swap(items[i].ap, items[i].bp);
            std::swap(items[i].an, items[i].bn);
        }

    // (shape, item) pairs sorted by shape, in a frame on the calling
    // thread's scratch arena: a wave sorts without touching the heap.
    struct Slot
    {
        std::uint64_t shape; ///< packed (an, bn), or kIneligible
        std::size_t item;
    };
    constexpr std::uint64_t kIneligible = ~std::uint64_t{0};
    support::ScratchFrame frame;
    Slot* order = frame.alloc_array<Slot>(count);
    for (std::size_t i = 0; i < count; ++i) {
        const bool eligible = w != 0 && table.soa_vertical != nullptr &&
                              items[i].bn >= 1 &&
                              items[i].an <= kSoaMaxLimbs;
        order[i] = {eligible
                        ? (static_cast<std::uint64_t>(items[i].an) << 32) |
                              items[i].bn
                        : kIneligible,
                    i};
    }
    std::sort(order, order + count, [](const Slot& x, const Slot& y) {
        return x.shape != y.shape ? x.shape < y.shape : x.item < y.item;
    });

    std::size_t via_soa = 0;
    std::size_t pos = 0;
    while (pos < count) {
        const std::uint64_t key = order[pos].shape;
        std::size_t end = pos;
        while (end < count && order[end].shape == key)
            ++end;
        if (key != kIneligible) {
            const std::size_t an = key >> 32;
            const std::size_t bn = key & 0xffffffffULL;
            CAMP_ASSERT(w <= 8);
            const Limb* aps[8];
            const Limb* bps[8];
            Limb* rps[8];
            while (pos + w <= end) {
                for (std::size_t lane = 0; lane < w; ++lane) {
                    SoaItem& item = items[order[pos + lane].item];
                    aps[lane] = item.ap;
                    bps[lane] = item.bp;
                    rps[lane] = item.rp;
                }
                soa_group_core(table, an, bn, aps, bps, rps);
                for (std::size_t lane = 0; lane < w; ++lane) {
                    SoaItem& item = items[order[pos + lane].item];
                    std::size_t rn = an + bn;
                    while (rn > 0 && item.rp[rn - 1] == 0)
                        --rn;
                    item.rn = rn;
                }
                via_soa += w;
                pos += w;
            }
        }
        // Remainder lanes and ineligible items: the ordinary dispatched
        // kernel, straight into the caller's slot — still no product
        // allocation.
        for (; pos < end; ++pos) {
            SoaItem& item = items[order[pos].item];
            if (item.bn == 0) {
                item.rn = 0;
                continue;
            }
            mul(item.rp, item.ap, item.an, item.bp, item.bn);
            std::size_t rn = item.an + item.bn;
            while (rn > 0 && item.rp[rn - 1] == 0)
                --rn;
            item.rn = rn;
        }
    }
    if (via_soa) {
        static support::metrics::Counter& soa_products =
            support::metrics::counter("mpn.soa.products");
        soa_products.add(via_soa);
    }
    return via_soa;
}

std::size_t
soa_mul_batch(const std::pair<Natural, Natural>* pairs,
              std::size_t count, Natural* out)
{
    std::vector<std::vector<Limb>> limbs(count);
    std::vector<SoaItem> items(count);
    std::size_t allocs = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const Natural& a = pairs[i].first;
        const Natural& b = pairs[i].second;
        items[i] = {a.data(), a.size(), b.data(), b.size()};
        if (a.is_zero() || b.is_zero())
            continue; // zero product: needs no slot
        limbs[i].resize(a.size() + b.size());
        items[i].rp = limbs[i].data();
        ++allocs;
    }
    static support::metrics::Counter& alloc_count =
        support::metrics::counter("mpn.alloc.count");
    alloc_count.add(allocs);
    const std::size_t via_soa = soa_mul_batch_raw(items.data(), count);
    for (std::size_t i = 0; i < count; ++i)
        out[i] = Natural::from_limbs(std::move(limbs[i]));
    return via_soa;
}

} // namespace camp::mpn::kernels
