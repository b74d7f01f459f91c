/**
 * @file
 * Integer: sign-magnitude arbitrary-precision integers over Natural —
 * the GMP-MPZ-equivalent layer. Sign-magnitude (not two's complement)
 * matches the paper's §V-C: "negatives are supported via sign-magnitude
 * ... to avoid the additional costs on computing with sign-extended
 * leading 1s".
 */
#ifndef CAMP_MPZ_INTEGER_HPP
#define CAMP_MPZ_INTEGER_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "mpn/natural.hpp"

namespace camp::mpz {

using mpn::Natural;

/** Arbitrary-precision signed integer (sign + magnitude). */
class Integer
{
  public:
    Integer() = default;

    Integer(std::int64_t v) // NOLINT: implicit by design
        : negative_(v < 0),
          mag_(v < 0 ? static_cast<std::uint64_t>(-(v + 1)) + 1
                     : static_cast<std::uint64_t>(v))
    {
    }

    /** From a magnitude and sign (sign ignored for zero). */
    Integer(Natural mag, bool negative)
        : negative_(negative && !mag.is_zero()), mag_(std::move(mag))
    {
    }

    Integer(const Natural& n) : negative_(false), mag_(n) {} // NOLINT

    /** Parse optional leading '-' followed by decimal digits. */
    static Integer from_decimal(std::string_view s);

    bool is_zero() const { return mag_.is_zero(); }
    bool is_negative() const { return negative_; }
    bool is_odd() const { return mag_.is_odd(); }
    const Natural& abs() const { return mag_; }
    std::uint64_t bits() const { return mag_.bits(); }

    /** Low 64 bits of the magnitude with sign applied (may wrap). */
    std::int64_t to_int64() const;
    double to_double() const;
    std::string to_decimal() const;

    friend Integer operator-(const Integer& a) { return {a.mag_, !a.negative_}; }
    friend Integer operator+(const Integer& a, const Integer& b);
    friend Integer operator-(const Integer& a, const Integer& b);
    friend Integer operator*(const Integer& a, const Integer& b);
    /** Truncated division (rounds toward zero, like GMP tdiv / C99). */
    friend Integer operator/(const Integer& a, const Integer& b);
    /** Remainder with the sign of the dividend (C99 semantics). */
    friend Integer operator%(const Integer& a, const Integer& b);
    friend Integer operator<<(const Integer& a, std::uint64_t cnt);
    /** Arithmetic shift toward zero on the magnitude. */
    friend Integer operator>>(const Integer& a, std::uint64_t cnt);

    Integer& operator+=(const Integer& b) { return *this = *this + b; }
    Integer& operator-=(const Integer& b) { return *this = *this - b; }
    Integer& operator*=(const Integer& b) { return *this = *this * b; }

    friend bool
    operator==(const Integer& a, const Integer& b)
    {
        return a.negative_ == b.negative_ && a.mag_ == b.mag_;
    }
    friend std::strong_ordering operator<=>(const Integer& a,
                                            const Integer& b);

    /** Truncated quotient and remainder in one division. */
    static std::pair<Integer, Integer> divrem(const Integer& a,
                                              const Integer& b);

    /** Euclidean remainder in [0, |m|). */
    static Natural mod(const Integer& a, const Natural& m);

    /** a^e for e >= 0. */
    static Integer pow(const Integer& a, std::uint64_t e);

    /**
     * Modular exponentiation base^exp mod m for m >= 1. An odd m runs
     * a sliding-window Montgomery exponentiation whose width follows
     * the exponent's length (1, the plain ladder, up to 23 bits; 6
     * above 671); an even m runs a square-and-mod ladder.
     */
    static Natural powmod(const Natural& base, const Natural& exp,
                          const Natural& m);

    /** Modular inverse of a mod m; throws if gcd(a, m) != 1. */
    static Natural invmod(const Natural& a, const Natural& m);

    /**
     * Trial division by the primes below 1024, then a Miller–Rabin
     * probabilistic primality test with @p rounds rounds of
     * deterministically seeded bases.
     */
    static bool is_probable_prime(const Natural& n, int rounds = 25,
                                  std::uint64_t seed = 0x5eed);

  private:
    bool negative_ = false;
    Natural mag_;
};

} // namespace camp::mpz

#endif // CAMP_MPZ_INTEGER_HPP
