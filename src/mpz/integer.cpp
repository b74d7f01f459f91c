#include "mpz/integer.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "mpn/basic.hpp"
#include "mpn/div.hpp"
#include "mpn/mont.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace camp::mpz {

Integer
Integer::from_decimal(std::string_view s)
{
    if (s.empty())
        throw std::invalid_argument("Integer::from_decimal: empty");
    bool neg = false;
    if (s.front() == '-') {
        neg = true;
        s.remove_prefix(1);
    }
    return {Natural::from_decimal(s), neg};
}

std::int64_t
Integer::to_int64() const
{
    const auto v = static_cast<std::int64_t>(mag_.to_uint64());
    return negative_ ? -v : v;
}

double
Integer::to_double() const
{
    const double v = mag_.to_double();
    return negative_ ? -v : v;
}

std::string
Integer::to_decimal() const
{
    return negative_ ? "-" + mag_.to_decimal() : mag_.to_decimal();
}

Integer
operator+(const Integer& a, const Integer& b)
{
    if (a.negative_ == b.negative_)
        return {a.mag_ + b.mag_, a.negative_};
    // Opposite signs: larger magnitude wins.
    if (a.mag_ >= b.mag_)
        return {a.mag_ - b.mag_, a.negative_};
    return {b.mag_ - a.mag_, b.negative_};
}

Integer
operator-(const Integer& a, const Integer& b)
{
    return a + (-b);
}

Integer
operator*(const Integer& a, const Integer& b)
{
    return {a.mag_ * b.mag_, a.negative_ != b.negative_};
}

std::pair<Integer, Integer>
Integer::divrem(const Integer& a, const Integer& b)
{
    auto [q, r] = Natural::divrem(a.mag_, b.mag_);
    return {Integer(std::move(q), a.negative_ != b.negative_),
            Integer(std::move(r), a.negative_)};
}

Integer
operator/(const Integer& a, const Integer& b)
{
    return Integer::divrem(a, b).first;
}

Integer
operator%(const Integer& a, const Integer& b)
{
    return Integer::divrem(a, b).second;
}

Integer
operator<<(const Integer& a, std::uint64_t cnt)
{
    return {a.mag_ << cnt, a.negative_};
}

Integer
operator>>(const Integer& a, std::uint64_t cnt)
{
    return {a.mag_ >> cnt, a.negative_};
}

std::strong_ordering
operator<=>(const Integer& a, const Integer& b)
{
    if (a.negative_ != b.negative_)
        return a.negative_ ? std::strong_ordering::less
                           : std::strong_ordering::greater;
    const auto mag_order = a.mag_ <=> b.mag_;
    if (!a.negative_)
        return mag_order;
    if (mag_order == std::strong_ordering::less)
        return std::strong_ordering::greater;
    if (mag_order == std::strong_ordering::greater)
        return std::strong_ordering::less;
    return std::strong_ordering::equal;
}

Natural
Integer::mod(const Integer& a, const Natural& m)
{
    Natural r = a.mag_ % m;
    if (a.negative_ && !r.is_zero())
        r = m - r;
    return r;
}

Integer
Integer::pow(const Integer& a, std::uint64_t e)
{
    return {Natural::pow(a.mag_, e), a.negative_ && (e & 1)};
}

namespace {

/** Sliding-window width for an @p ebits-bit exponent, as OpenSSL's
 * BN_window_bits_for_exponent_size picks it. Width 1 is the plain
 * binary ladder, so a 17-bit public exponent builds no table. */
unsigned
window_bits(std::uint64_t ebits)
{
    if (ebits > 671)
        return 6;
    if (ebits > 239)
        return 5;
    if (ebits > 79)
        return 4;
    if (ebits > 23)
        return 3;
    return 1;
}

/**
 * base^exp mod m for an odd m > 1, exp >= 1 and base < m: Montgomery
 * arithmetic with a left-to-right sliding window over the odd powers
 * base^1, base^3, .., base^(2^w - 1). The table, the accumulator and
 * the product live in one scratch frame, and each step swaps the
 * accumulator with the product, so the loop touches no heap.
 */
Natural
powmod_odd(const Natural& base, const Natural& exp, const Natural& m)
{
    const mpn::MontCtx ctx(m.data(), m.size());
    const std::size_t nn = ctx.size();
    const std::uint64_t ebits = exp.bits();
    const unsigned w = window_bits(ebits);
    const std::size_t entries = std::size_t{1} << (w - 1);

    support::ScratchFrame scratch;
    mpn::Limb* table = scratch.alloc(entries * nn); // base^(2k+1) at k*nn
    mpn::Limb* acc = scratch.alloc(nn);
    mpn::Limb* t = scratch.alloc(nn);
    mpn::zero(acc, nn);
    mpn::copy(acc, base.data(), base.size());
    ctx.to_mont(table, acc);
    if (entries > 1) {
        ctx.sqr(t, table);
        for (std::size_t k = 1; k < entries; ++k)
            ctx.mul(table + k * nn, table + (k - 1) * nn, t);
    }

    bool seeded = false;
    for (std::uint64_t top = ebits; top > 0;) {
        const std::uint64_t i = top - 1;
        if (!exp.bit(i)) {
            ctx.sqr(t, acc);
            std::swap(acc, t);
            top = i;
            continue;
        }
        // The window is bits [j, i]: at most w wide, ending on a set
        // bit, so its value is odd and indexes the table at val >> 1.
        std::uint64_t j = i + 1 > w ? i + 1 - w : 0;
        while (!exp.bit(j))
            ++j;
        std::size_t val = 0;
        for (std::uint64_t k = i + 1; k-- > j;)
            val = (val << 1) | static_cast<std::size_t>(exp.bit(k));
        const mpn::Limb* power = table + (val >> 1) * nn;
        if (seeded) {
            for (std::uint64_t k = j; k <= i; ++k) {
                ctx.sqr(t, acc);
                std::swap(acc, t);
            }
            ctx.mul(t, acc, power);
            std::swap(acc, t);
        } else {
            // The top bit is set, so the first window seeds acc.
            mpn::copy(acc, power, nn);
            seeded = true;
        }
        top = j;
    }
    std::vector<mpn::Limb> r(nn);
    ctx.from_mont(r.data(), acc);
    return Natural::from_limbs(std::move(r));
}

} // namespace

Natural
Integer::powmod(const Natural& base, const Natural& exp, const Natural& m)
{
    if (m.is_zero())
        throw std::invalid_argument("Integer::powmod: zero modulus");
    if (m == Natural(1))
        return Natural();
    if (exp.is_zero())
        return Natural(1);
    const Natural b = base % m;
    if (m.is_odd())
        return powmod_odd(b, exp, m);
    // Even modulus: plain square-and-mod ladder.
    Natural acc(1);
    for (std::uint64_t i = exp.bits(); i-- > 0;) {
        acc = (acc * acc) % m;
        if (exp.bit(i))
            acc = (acc * b) % m;
    }
    return acc;
}

Natural
Integer::invmod(const Natural& a, const Natural& m)
{
    // Extended Euclid on (a mod m, m) with signed Bezout coefficients.
    if (m.is_zero())
        throw std::invalid_argument("Integer::invmod: zero modulus");
    Integer r0(a % m), r1(m);
    Integer s0(1), s1(0);
    while (!r1.is_zero()) {
        auto [q, r] = Integer::divrem(r0, r1);
        const Integer s2 = s0 - q * s1;
        r0 = r1;
        r1 = r;
        s0 = s1;
        s1 = s2;
    }
    if (r0.abs() != Natural(1))
        throw std::invalid_argument("Integer::invmod: not invertible");
    return Integer::mod(s0, m);
}

namespace {

/** The odd primes below 1024, in runs whose products fit one limb. */
struct SmallPrimes
{
    struct Group
    {
        mpn::Limb product;
        std::size_t first, last; ///< primes[first, last)
    };
    std::vector<mpn::Limb> primes;
    std::vector<Group> groups;
};

const SmallPrimes&
small_primes()
{
    static const SmallPrimes table = [] {
        constexpr unsigned kBound = 1024;
        SmallPrimes t;
        std::vector<bool> composite(kBound, false);
        for (unsigned p = 3; p < kBound; p += 2) {
            if (composite[p])
                continue;
            t.primes.push_back(p);
            for (unsigned c = p * p; c < kBound; c += 2 * p)
                composite[c] = true;
        }
        mpn::Limb product = 1;
        std::size_t first = 0;
        for (std::size_t k = 0; k < t.primes.size(); ++k) {
            if (product > ~mpn::Limb{0} / t.primes[k]) {
                t.groups.push_back({product, first, k});
                product = 1;
                first = k;
            }
            product *= t.primes[k];
        }
        t.groups.push_back({product, first, t.primes.size()});
        return t;
    }();
    return table;
}

} // namespace

bool
Integer::is_probable_prime(const Natural& n, int rounds,
                           std::uint64_t seed)
{
    if (n < Natural(2))
        return false;
    if (!n.is_odd())
        return n == Natural(2);
    // Trial division: one single-limb remainder per group product,
    // then one machine remainder per prime of the group.
    {
        const SmallPrimes& small = small_primes();
        support::ScratchFrame scratch;
        mpn::Limb* q = scratch.alloc(n.size());
        for (const SmallPrimes::Group& g : small.groups) {
            const mpn::Limb r =
                mpn::divrem_1(q, n.data(), n.size(), g.product);
            for (std::size_t k = g.first; k < g.last; ++k)
                if (r % small.primes[k] == 0)
                    return n == Natural(small.primes[k]);
        }
    }
    // n - 1 = d * 2^s with d odd.
    const Natural nm1 = n - Natural(1);
    std::uint64_t s = 0;
    Natural d = nm1;
    while (!d.is_odd()) {
        d >>= 1;
        ++s;
    }
    Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
        // Uniform base in [2, n - 2]; bias from modding is irrelevant
        // for the error bound.
        Natural base =
            Natural::random_bits(rng, n.bits()) % (n - Natural(3));
        base += Natural(2);
        Natural x = powmod(base, d, n);
        if (x == Natural(1) || x == nm1)
            continue;
        bool witness = true;
        for (std::uint64_t i = 1; i < s; ++i) {
            x = (x * x) % n;
            if (x == nm1) {
                witness = false;
                break;
            }
        }
        if (witness)
            return false;
    }
    return true;
}

} // namespace camp::mpz
