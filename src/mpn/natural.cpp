#include "mpn/natural.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mul.hpp"
#include "mpn/ophook.hpp"
#include "mpn/sqrt.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace camp::mpn {

namespace {

/** Largest power of ten in a limb: 10^19. */
constexpr Limb kPow10PerLimb = 10000000000000000000ULL;
constexpr unsigned kDigitsPerLimb = 19;

} // namespace

void
Natural::normalize()
{
    while (!limbs_.empty() && limbs_.back() == 0)
        limbs_.pop_back();
}

Natural
Natural::from_limbs(std::vector<Limb> limbs)
{
    Natural n;
    n.limbs_ = std::move(limbs);
    n.normalize();
    return n;
}

std::uint64_t
Natural::bits() const
{
    return bit_size(limbs_.data(), limbs_.size());
}

bool
Natural::bit(std::uint64_t i) const
{
    return get_bit(limbs_.data(), limbs_.size(), i);
}

double
Natural::to_double() const
{
    double v = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;)
        v = v * 18446744073709551616.0 + static_cast<double>(limbs_[i]);
    return v;
}

Natural
operator+(const Natural& a, const Natural& b)
{
    OpScope scope(OpKind::Add, a.bits(), b.bits());
    const Natural& hi = a.size() >= b.size() ? a : b;
    const Natural& lo = a.size() >= b.size() ? b : a;
    std::vector<Limb> r(hi.size() + 1);
    const Limb carry = add(r.data(), hi.data(), hi.size(), lo.data(),
                           lo.size());
    r[hi.size()] = carry;
    return Natural::from_limbs(std::move(r));
}

Natural
operator-(const Natural& a, const Natural& b)
{
    OpScope scope(OpKind::Sub, a.bits(), b.bits());
    if (a < b)
        throw std::invalid_argument("Natural subtraction underflow");
    std::vector<Limb> r(a.size());
    const Limb borrow = sub(r.data(), a.data(), a.size(), b.data(),
                            b.size());
    CAMP_ASSERT(borrow == 0);
    return Natural::from_limbs(std::move(r));
}

Natural
operator*(const Natural& a, const Natural& b)
{
    OpScope scope(OpKind::Mul, a.bits(), b.bits());
    if (a.is_zero() || b.is_zero())
        return Natural();
    // Churn visibility: every heap-allocated product buffer bumps
    // mpn.alloc.count.
    static support::metrics::Counter& allocs =
        support::metrics::counter("mpn.alloc.count");
    allocs.add(1);
    std::vector<Limb> r(a.size() + b.size());
    if (a.size() >= b.size())
        mul(r.data(), a.data(), a.size(), b.data(), b.size());
    else
        mul(r.data(), b.data(), b.size(), a.data(), a.size());
    return Natural::from_limbs(std::move(r));
}

std::pair<Natural, Natural>
Natural::divrem(const Natural& a, const Natural& b)
{
    OpScope scope(OpKind::Div, a.bits(), b.bits());
    if (b.is_zero())
        throw std::invalid_argument("Natural division by zero");
    if (a < b)
        return {Natural(), a};
    std::vector<Limb> q(a.size() - b.size() + 1), r(b.size());
    camp::mpn::divrem(q.data(), r.data(), a.data(), a.size(), b.data(),
                      b.size());
    return {from_limbs(std::move(q)), from_limbs(std::move(r))};
}

Natural
operator/(const Natural& a, const Natural& b)
{
    return Natural::divrem(a, b).first;
}

Natural
operator%(const Natural& a, const Natural& b)
{
    return Natural::divrem(a, b).second;
}

Natural
operator<<(const Natural& a, std::uint64_t cnt)
{
    OpScope scope(OpKind::Shift, a.bits(), cnt);
    if (a.is_zero())
        return a;
    const std::size_t limb_shift = static_cast<std::size_t>(cnt / 64);
    const unsigned bit_shift = static_cast<unsigned>(cnt % 64);
    std::vector<Limb> r(a.size() + limb_shift + 1, 0);
    if (bit_shift == 0) {
        copy(r.data() + limb_shift, a.data(), a.size());
    } else {
        r[a.size() + limb_shift] =
            lshift(r.data() + limb_shift, a.data(), a.size(), bit_shift);
    }
    return Natural::from_limbs(std::move(r));
}

Natural
operator>>(const Natural& a, std::uint64_t cnt)
{
    OpScope scope(OpKind::Shift, a.bits(), cnt);
    const std::size_t limb_shift = static_cast<std::size_t>(cnt / 64);
    if (limb_shift >= a.size())
        return Natural();
    const unsigned bit_shift = static_cast<unsigned>(cnt % 64);
    std::vector<Limb> r(a.size() - limb_shift);
    if (bit_shift == 0)
        copy(r.data(), a.data() + limb_shift, r.size());
    else
        rshift(r.data(), a.data() + limb_shift, r.size(), bit_shift);
    return Natural::from_limbs(std::move(r));
}

namespace {

Natural
logic_op(const Natural& a, const Natural& b,
         void (*op)(Limb*, const Limb*, const Limb*, std::size_t),
         bool keep_high)
{
    const Natural& hi = a.size() >= b.size() ? a : b;
    const Natural& lo = a.size() >= b.size() ? b : a;
    std::vector<Limb> r(keep_high ? hi.size() : lo.size(), 0);
    op(r.data(), hi.data(), lo.data(), lo.size());
    if (keep_high)
        copy(r.data() + lo.size(), hi.data() + lo.size(),
             hi.size() - lo.size());
    return Natural::from_limbs(std::move(r));
}

} // namespace

Natural
operator&(const Natural& a, const Natural& b)
{
    return logic_op(a, b, and_n, false);
}

Natural
operator|(const Natural& a, const Natural& b)
{
    return logic_op(a, b, or_n, true);
}

Natural
operator^(const Natural& a, const Natural& b)
{
    return logic_op(a, b, xor_n, true);
}

std::strong_ordering
operator<=>(const Natural& a, const Natural& b)
{
    const int c = cmp(a.data(), a.size(), b.data(), b.size());
    return c < 0 ? std::strong_ordering::less
           : c > 0 ? std::strong_ordering::greater
                   : std::strong_ordering::equal;
}

std::pair<Natural, Natural>
Natural::sqrtrem(const Natural& a)
{
    OpScope scope(OpKind::Sqrt, a.bits(), 0);
    if (a.is_zero())
        return {Natural(), Natural()};
    std::vector<Limb> s((a.size() + 1) / 2), r(a.size());
    camp::mpn::sqrtrem(s.data(), r.data(), a.data(), a.size());
    return {from_limbs(std::move(s)), from_limbs(std::move(r))};
}

Natural
Natural::isqrt(const Natural& a)
{
    return sqrtrem(a).first;
}

Natural
Natural::pow(const Natural& a, std::uint64_t e)
{
    Natural result(1);
    Natural base = a;
    while (e != 0) {
        if (e & 1)
            result *= base;
        e >>= 1;
        if (e != 0)
            base *= base;
    }
    return result;
}

Natural
Natural::gcd(Natural a, Natural b)
{
    OpScope scope(OpKind::Gcd, a.bits(), b.bits());
    // Binary GCD: strip common twos, then subtract-and-shift.
    if (a.is_zero())
        return b;
    if (b.is_zero())
        return a;
    std::uint64_t shift = 0;
    while (!a.is_odd() && !b.is_odd()) {
        a >>= 1;
        b >>= 1;
        ++shift;
    }
    while (!a.is_odd())
        a >>= 1;
    while (!b.is_zero()) {
        while (!b.is_odd())
            b >>= 1;
        if (a > b)
            std::swap(a, b);
        b -= a;
    }
    return a << shift;
}

std::uint64_t
Natural::popcount() const
{
    std::uint64_t count = 0;
    for (const Limb limb : limbs_)
        count += static_cast<std::uint64_t>(std::popcount(limb));
    return count;
}

std::uint64_t
Natural::scan1() const
{
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        if (limbs_[i] != 0)
            return i * 64 + static_cast<std::uint64_t>(
                                std::countr_zero(limbs_[i]));
    }
    return bits();
}

std::uint64_t
Natural::trailing_zeros() const
{
    return scan1();
}

std::vector<std::uint8_t>
Natural::to_bytes() const
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(limbs_.size() * 8);
    for (const Limb limb : limbs_)
        for (int b = 0; b < 8; ++b)
            bytes.push_back(static_cast<std::uint8_t>(limb >> (8 * b)));
    while (!bytes.empty() && bytes.back() == 0)
        bytes.pop_back();
    return bytes;
}

Natural
Natural::from_bytes(const std::uint8_t* data, std::size_t size)
{
    std::vector<Limb> limbs((size + 7) / 8, 0);
    for (std::size_t i = 0; i < size; ++i)
        limbs[i / 8] |= static_cast<Limb>(data[i]) << (8 * (i % 8));
    return from_limbs(std::move(limbs));
}

// ---------------------------------------------------------------------
// String conversion: divide-and-conquer in both directions so that the
// Pi benchmark's multi-million digit output is not quadratic.
// ---------------------------------------------------------------------

namespace {

/** Cached 10^(2^k) table so both conversions split at the same points. */
const Natural&
pow10_pow2(unsigned k)
{
    static std::vector<Natural> cache{Natural(10)};
    while (cache.size() <= k)
        cache.push_back(cache.back() * cache.back());
    return cache[k];
}

} // namespace

Natural
Natural::pow10(std::uint64_t e)
{
    Natural r(1);
    for (unsigned k = 0; e != 0; ++k, e >>= 1) {
        if (e & 1)
            r *= pow10_pow2(k);
    }
    return r;
}

namespace {

Natural
from_decimal_rec(std::string_view s)
{
    if (s.size() <= kDigitsPerLimb) {
        Limb v = 0;
        for (const char c : s) {
            if (c < '0' || c > '9')
                throw std::invalid_argument(
                    "Natural::from_decimal: bad digit");
            v = v * 10 + static_cast<Limb>(c - '0');
        }
        return Natural(v);
    }
    // Split the *low* part at a power-of-two digit count so every
    // multiplier is a cached 10^(2^k).
    const unsigned k = static_cast<unsigned>(ceil_log2(s.size()) - 1);
    const std::size_t low = std::size_t{1} << k;
    const Natural high = from_decimal_rec(s.substr(0, s.size() - low));
    const Natural lo = from_decimal_rec(s.substr(s.size() - low));
    return high * pow10_pow2(k) + lo;
}

void
to_decimal_rec(const Natural& n, std::uint64_t digits, std::string& out)
{
    // Writes exactly `digits` characters (zero padded) for n < 10^digits.
    if (digits <= kDigitsPerLimb) {
        char buf[24];
        Limb v = n.to_uint64();
        CAMP_ASSERT(n.size() <= 1);
        for (std::uint64_t i = digits; i-- > 0;) {
            buf[i] = static_cast<char>('0' + v % 10);
            v /= 10;
        }
        CAMP_ASSERT(v == 0);
        out.append(buf, digits);
        return;
    }
    const unsigned k = static_cast<unsigned>(ceil_log2(digits) - 1);
    const std::uint64_t low_digits = std::uint64_t{1} << k;
    auto [q, r] = Natural::divrem(n, pow10_pow2(k));
    to_decimal_rec(q, digits - low_digits, out);
    to_decimal_rec(r, low_digits, out);
}

} // namespace

Natural
Natural::from_decimal(std::string_view s)
{
    if (s.empty())
        throw std::invalid_argument("Natural::from_decimal: empty");
    return from_decimal_rec(s);
}

std::string
Natural::to_decimal() const
{
    if (is_zero())
        return "0";
    // Upper bound on digit count: bits * log10(2) + 1.
    const std::uint64_t digits =
        static_cast<std::uint64_t>(static_cast<double>(bits()) * 0.30103) +
        2;
    std::string out;
    out.reserve(digits);
    to_decimal_rec(*this, digits, out);
    const std::size_t first = out.find_first_not_of('0');
    return out.substr(first);
}

Natural
Natural::from_hex(std::string_view s)
{
    if (s.empty())
        throw std::invalid_argument("Natural::from_hex: empty");
    std::vector<Limb> limbs(limbs_for_bits(s.size() * 4), 0);
    std::size_t bitpos = 0;
    for (std::size_t i = s.size(); i-- > 0;) {
        const char c = s[i];
        Limb v;
        if (c >= '0' && c <= '9')
            v = static_cast<Limb>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v = static_cast<Limb>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            v = static_cast<Limb>(c - 'A' + 10);
        else
            throw std::invalid_argument("Natural::from_hex: bad digit");
        limbs[bitpos / 64] |= v << (bitpos % 64);
        bitpos += 4;
    }
    return from_limbs(std::move(limbs));
}

std::string
Natural::to_hex() const
{
    if (is_zero())
        return "0";
    static const char* digits = "0123456789abcdef";
    std::string out;
    bool leading = true;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        for (int nib = 15; nib >= 0; --nib) {
            const unsigned v =
                static_cast<unsigned>((limbs_[i] >> (nib * 4)) & 0xf);
            if (leading && v == 0)
                continue;
            leading = false;
            out.push_back(digits[v]);
        }
    }
    return out;
}

} // namespace camp::mpn
