#include "mpn/newton.hpp"

#include <stdexcept>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/opcache.hpp"

namespace camp::mpn {

namespace {

/** Newton iteration core: floor(2^(bits(d) + extra) / d) for a
 * non-power-of-two d with bits(d) > 64 and extra >= 64. */
Natural
reciprocal_iterate(const Natural& d, std::uint64_t extra)
{
    const std::uint64_t bits = d.bits();
    const std::uint64_t m = bits + extra;

    // 63-good-bit seed from the top 64 divisor bits (rounded up so the
    // seed under-approximates and the first iterations stay stable).
    const std::uint64_t dtop =
        (d >> (bits - 64)).to_uint64();
    const u128 seed128 =
        ((static_cast<u128>(1) << 127)) / (static_cast<u128>(dtop) + 1);
    // seed128 ~ 2^(63 + bits) / d; rescale to 2^m / d.
    Natural x = Natural(static_cast<std::uint64_t>(seed128 >> 64)) << 64 |
                Natural(static_cast<std::uint64_t>(seed128));
    CAMP_ASSERT(m >= bits + 63);
    x = x << (m - bits - 63);

    // Quadratic convergence: ~log2(m / 60) + 2 iterations suffice.
    const int iterations = ceil_log2(m / 60 + 2) + 2;
    for (int i = 0; i < iterations; ++i) {
        const Natural dxx = d * (x * x);
        const Natural two_x = x << 1;
        const Natural sub = dxx >> m;
        // x' = 2x - d x^2 / 2^m; clamp defensively (cannot underflow
        // once x underestimates, but the seed rounding is coarse).
        x = two_x > sub ? two_x - sub : Natural(1);
    }

    // Exact correction to the floor: 0 <= 2^m - d*x < d.
    const Natural pow = Natural(1) << m;
    Natural dx = d * x;
    int guard = 0;
    while (dx > pow) {
        // Overshoot: step down proportionally, then by ones.
        const Natural excess = (dx - pow) / d + Natural(1);
        x -= excess;
        dx = d * x;
        CAMP_ASSERT(++guard < 8);
    }
    guard = 0;
    while (pow - dx >= d) {
        const Natural deficit = (pow - dx) / d;
        x += deficit;
        dx = d * x;
        CAMP_ASSERT(++guard < 8);
    }
    return x;
}

} // namespace

Natural
newton_reciprocal(const Natural& d, std::uint64_t extra)
{
    if (d.is_zero())
        throw std::invalid_argument("newton_reciprocal: zero divisor");
    const std::uint64_t bits = d.bits();
    const std::uint64_t m = bits + extra;

    // A power-of-two divisor (including d == 1) has the exact
    // reciprocal 2^(m - (bits-1)) — no iteration, no division.
    if ((d & (d - Natural(1))).is_zero())
        return Natural(1) << (m - (bits - 1));

    // Small targets: direct division is cheaper than iterating (and
    // cheaper than a cache round-trip).
    if (extra < 64 || bits <= 64) {
        return ((Natural(1) << m) / d);
    }

    // Inverse cache: reciprocals are keyed by the divisor alone and
    // stored at the widest precision computed so far. A cached
    // floor(2^(bits+se)/d) with se >= extra yields this call's value
    // by an exact downshift — floor(floor(a/d) / 2^k) ==
    // floor(a / (d 2^k)) — so a hit is bit-identical to recomputing.
    support::OpCache& cache = support::OpCache::global();
    const bool use_cache = cache.enabled();
    support::OpKey key;
    if (use_cache) {
        key = support::make_key(support::OpTag::Reciprocal, d.limbs());
        if (const auto hit = cache.lookup(key)) {
            const std::uint64_t stored_extra = hit->scalars[0];
            if (stored_extra >= extra) {
                // Copy-on-return: the cached limbs stay immutable.
                Natural x = Natural::from_limbs(hit->parts[0]);
                return stored_extra == extra
                           ? x
                           : x >> (stored_extra - extra);
            }
        }
    }

    Natural x = reciprocal_iterate(d, extra);

    if (use_cache) {
        support::OpValue value;
        value.parts.push_back(x.limbs());
        value.scalars.push_back(extra);
        cache.insert(std::move(key), std::move(value));
    }
    return x;
}

std::pair<Natural, Natural>
divrem_newton(const Natural& a, const Natural& d)
{
    if (d.is_zero())
        throw std::invalid_argument("divrem_newton: division by zero");
    if (a < d)
        return {Natural(), a};
    // Power-of-two divisors (including d == 1) are a pure shift/mask;
    // the reciprocal route would build a 2^(bits(a)+3)-sized
    // intermediate only to shift it away again.
    if ((d & (d - Natural(1))).is_zero()) {
        const std::uint64_t k = d.bits() - 1;
        if (k == 0)
            return {a, Natural()}; // d == 1
        Natural q = a >> k;
        Natural r = a & ((Natural(1) << k) - Natural(1));
        return {std::move(q), std::move(r)};
    }
    const std::uint64_t extra = a.bits() - d.bits() + 3;
    const Natural x = newton_reciprocal(d, extra);
    Natural q = (a * x) >> (d.bits() + extra);
    Natural r = a - q * d; // x is a floor, so q never overestimates
    int guard = 0;
    while (r >= d) {
        q += Natural(1);
        r -= d;
        CAMP_ASSERT(++guard < 8);
    }
    return {std::move(q), std::move(r)};
}

} // namespace camp::mpn
