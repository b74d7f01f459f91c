#include "apps/rsa/rsa.hpp"

#include "mpz/integer.hpp"
#include "support/assert.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace camp::apps::rsa {

using mpz::Integer;

Natural
generate_prime(std::uint64_t bits, std::uint64_t seed)
{
    CAMP_ASSERT(bits >= 8);
    Rng rng(seed);
    for (int attempt = 0; attempt < 100000; ++attempt) {
        Natural candidate = Natural::random_bits(rng, bits);
        if (!candidate.is_odd())
            candidate += Natural(1);
        // Trial division by the primes below 1024 happens inside
        // is_probable_prime, ahead of Miller–Rabin.
        if (Integer::is_probable_prime(candidate, 20, seed + attempt))
            return candidate;
    }
    CAMP_ASSERT_MSG(false, "generate_prime: exhausted attempts");
    return Natural();
}

KeyPair
generate_key(std::uint64_t modulus_bits, std::uint64_t seed)
{
    CAMP_ASSERT(modulus_bits >= 32);
    KeyPair key;
    key.e = Natural(65537);
    const std::uint64_t half = modulus_bits / 2;
    for (int attempt = 0;; ++attempt) {
        key.p = generate_prime(half, seed + 1000 * attempt);
        key.q = generate_prime(modulus_bits - half,
                               seed + 1000 * attempt + 500);
        if (key.p == key.q)
            continue;
        key.n = key.p * key.q;
        const Natural phi =
            (key.p - Natural(1)) * (key.q - Natural(1));
        if (Natural::gcd(key.e, phi) != Natural(1))
            continue;
        key.d = Integer::invmod(key.e, phi);
        key.dp = key.d % (key.p - Natural(1));
        key.dq = key.d % (key.q - Natural(1));
        key.qinv = Integer::invmod(key.q, key.p);
        return key;
    }
}

Natural
encrypt(const Natural& message, const KeyPair& key)
{
    CAMP_ASSERT(message < key.n);
    return Integer::powmod(message, key.e, key.n);
}

Natural
decrypt(const Natural& cipher, const KeyPair& key)
{
    CAMP_ASSERT_MSG(!key.qinv.is_zero(),
                    "rsa::decrypt: key lacks its CRT fields");
    const Natural c = cipher % key.n;
    const Natural m1 = Integer::powmod(c, key.dp, key.p);
    const Natural m2 = Integer::powmod(c, key.dq, key.q);
    // h = qinv * (m1 - m2) mod p, kept nonnegative by adding p. q may
    // exceed p, so m2 is reduced mod p first.
    const Natural h = (key.qinv * (m1 + key.p - m2 % key.p)) % key.p;
    Natural m = m2 + h * key.q;
    if (Integer::powmod(m, key.e, key.n) != c)
        throw Error(ErrorCode::Internal,
                    "rsa::decrypt: CRT result fails re-encryption");
    return m;
}

std::uint64_t
modexp_workload(std::uint64_t modulus_bits, int rounds,
                std::uint64_t seed)
{
    Rng rng(seed);
    Natural modulus = Natural::random_bits(rng, modulus_bits);
    if (!modulus.is_odd())
        modulus += Natural(1);
    std::uint64_t checksum = 1469598103934665603ULL;
    for (int round = 0; round < rounds; ++round) {
        const Natural base =
            Natural::random_bits(rng, modulus_bits - 1) % modulus;
        const Natural exponent =
            Natural::random_bits(rng, modulus_bits);
        const Natural result =
            Integer::powmod(base, exponent, modulus);
        checksum ^= result.to_uint64();
        checksum *= 1099511628211ULL;
    }
    return checksum;
}

} // namespace camp::apps::rsa
