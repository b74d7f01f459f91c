/**
 * @file
 * The paper's `RSA` benchmark [12]: key generation (Miller–Rabin),
 * raw-RSA encryption and CRT decryption via sliding-window Montgomery
 * modular exponentiation.
 * The workload is dominated by Montgomery reductions and squarings —
 * "the time proportion of multiplicative operations grows rapidly with
 * bitwidth" (paper §VII-C), which is why RSA shows the paper's largest
 * speedups.
 */
#ifndef CAMP_APPS_RSA_RSA_HPP
#define CAMP_APPS_RSA_RSA_HPP

#include <cstdint>

#include "mpn/natural.hpp"

namespace camp::apps::rsa {

using mpn::Natural;

/** RSA key pair, with the CRT fields decrypt() runs on. */
struct KeyPair
{
    Natural n; ///< modulus p*q
    Natural e; ///< public exponent (65537)
    Natural d; ///< private exponent
    Natural p;
    Natural q;
    Natural dp;   ///< d mod (p - 1)
    Natural dq;   ///< d mod (q - 1)
    Natural qinv; ///< q^-1 mod p
};

/** Deterministically seeded prime of exactly @p bits bits. */
Natural generate_prime(std::uint64_t bits, std::uint64_t seed);

/** Generate a key pair, CRT fields included, with an n of
 * @p modulus_bits bits. */
KeyPair generate_key(std::uint64_t modulus_bits, std::uint64_t seed);

/** c = m^e mod n. Requires m < n. */
Natural encrypt(const Natural& message, const KeyPair& key);

/**
 * m = c^d mod n by the Chinese remainder theorem: m1 = c^dp mod p and
 * m2 = c^dq mod q, two half-size exponentiations, recombined by
 * Garner's formula m = m2 + q * (qinv * (m1 - m2) mod p). The result
 * is re-encrypted before it is returned, and a mismatch (a faulty
 * half) throws camp::Error with ErrorCode::Internal. The key must
 * come from generate_key, which sets dp, dq and qinv.
 */
Natural decrypt(const Natural& cipher, const KeyPair& key);

/**
 * Benchmark-shaped workload: @p rounds modular exponentiations with a
 * full-size exponent modulo an odd @p modulus_bits-bit modulus (prime
 * structure is irrelevant to the cost; see DESIGN.md substitutions).
 * Returns a checksum of the results.
 */
std::uint64_t modexp_workload(std::uint64_t modulus_bits, int rounds,
                              std::uint64_t seed);

} // namespace camp::apps::rsa

#endif // CAMP_APPS_RSA_RSA_HPP
