/**
 * @file
 * Application-level tests: known pi digits, Mandelbrot perturbation vs
 * direct iteration, QFT unitarity and known entries, RSA round trips.
 */
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <vector>

#include "apps/frac/mandelbrot.hpp"
#include "apps/pi/chudnovsky.hpp"
#include "apps/rsa/rsa.hpp"
#include "apps/zkcm/zkcm.hpp"
#include "fuzz_seed.hpp"
#include "mpz/integer.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"

namespace pi_app = camp::apps::pi;
namespace frac = camp::apps::frac;
namespace zkcm = camp::apps::zkcm;
namespace rsa = camp::apps::rsa;
using camp::mpn::Natural;

namespace {

constexpr const char* kPi100 =
    "3.1415926535897932384626433832795028841971693993751058209749445923"
    "078164062862089986280348253421170679";

} // namespace

TEST(PiApp, First100Digits)
{
    EXPECT_EQ(pi_app::compute_pi(100), kPi100);
}

TEST(PiApp, PrefixStableAcrossSizes)
{
    const std::string pi1000 = pi_app::compute_pi(1000);
    const std::string pi300 = pi_app::compute_pi(300);
    EXPECT_EQ(pi1000.substr(0, 302), pi300);
    EXPECT_EQ(pi1000.size(), 1002u);
    EXPECT_EQ(pi1000.substr(0, 102), kPi100);
}

TEST(PiApp, TermEstimate)
{
    EXPECT_EQ(pi_app::terms_for_digits(100), 9u);
    EXPECT_GE(pi_app::terms_for_digits(1000000), 70510u);
}

TEST(PiApp, BinarySplittingMergeInvariant)
{
    // T(a,b) = T(a,m) Q(m,b) + P(a,m) T(m,b) must equal direct leaves.
    const auto whole = pi_app::binary_split(0, 8);
    auto acc = pi_app::binary_split(0, 1);
    for (std::uint64_t k = 1; k < 8; ++k) {
        const auto leaf = pi_app::binary_split(k, k + 1);
        pi_app::SplitTriple merged;
        merged.p = acc.p * leaf.p;
        merged.q = acc.q * leaf.q;
        merged.t = acc.t * leaf.q + acc.p * leaf.t;
        acc = merged;
    }
    EXPECT_EQ(acc.p, whole.p);
    EXPECT_EQ(acc.q, whole.q);
    EXPECT_EQ(acc.t, whole.t);
}

TEST(FracApp, ParseDecimalRoundTrip)
{
    const auto v = frac::parse_decimal("-0.5", 128);
    EXPECT_DOUBLE_EQ(v.to_double(), -0.5);
    EXPECT_NEAR(frac::parse_decimal("3.14159", 128).to_double(),
                3.14159, 1e-12);
}

TEST(FracApp, ReferenceOrbitMatchesDoubleIterationShallow)
{
    // At shallow depth the high-precision orbit must agree with plain
    // double iteration.
    const frac::FloatComplex c{frac::parse_decimal("-0.1", 256),
                               frac::parse_decimal("0.65", 256)};
    const auto orbit = frac::reference_orbit(c, 50);
    std::complex<double> z = 0;
    const std::complex<double> cd(-0.1, 0.65);
    for (std::size_t n = 0; n < orbit.size(); ++n) {
        EXPECT_NEAR(orbit[n].real(), z.real(), 1e-9) << n;
        EXPECT_NEAR(orbit[n].imag(), z.imag(), 1e-9) << n;
        z = z * z + cd;
    }
}

TEST(FracApp, InteriorCenterOrbitDoesNotEscape)
{
    frac::RenderParams params;
    params.max_iterations = 500;
    const frac::FloatComplex c{
        frac::parse_decimal(params.center_re, 256),
        frac::parse_decimal(params.center_im, 256)};
    const auto orbit = frac::reference_orbit(c, 500);
    EXPECT_EQ(orbit.size(), 501u);
}

TEST(FracApp, RenderProducesMixedEscapeMap)
{
    frac::RenderParams params;
    params.width = 32;
    params.height = 24;
    params.zoom_log2 = 4; // shallow zoom: varied escape behaviour
    params.max_iterations = 300;
    const auto result = frac::render(params);
    EXPECT_EQ(result.iterations.size(), 32u * 24);
    EXPECT_GT(result.escape_fraction, 0.05);
    EXPECT_LT(result.escape_fraction, 0.995);
    // Deterministic rendering.
    EXPECT_EQ(frac::render(params).checksum, result.checksum);
}

TEST(FracApp, DeepZoomRunsOnPerturbation)
{
    frac::RenderParams params;
    params.width = 16;
    params.height = 12;
    params.zoom_log2 = 60; // far beyond double pixel resolution
    params.precision_bits = 256;
    params.max_iterations = 400;
    const auto result = frac::render(params);
    EXPECT_EQ(result.orbit_length, 401u);
    EXPECT_EQ(result.iterations.size(), 16u * 12);
}

TEST(ZkcmApp, ComplexArithmetic)
{
    const auto prec = 128u;
    const zkcm::Complex i{camp::mpf::Float::with_prec(prec),
                          camp::mpf::Float::from_natural(Natural(1),
                                                         prec)};
    const zkcm::Complex sq = i * i;
    EXPECT_NEAR(sq.re.to_double(), -1.0, 1e-30);
    EXPECT_TRUE(sq.im.is_zero());
    EXPECT_NEAR(i.norm2().to_double(), 1.0, 1e-30);
}

TEST(ZkcmApp, HadamardIsUnitaryAndInvolutory)
{
    const auto h = zkcm::hadamard(256);
    EXPECT_LT(zkcm::unitarity_error(h), 1e-60);
    // H^2 = I.
    EXPECT_LT(zkcm::CMatrix::max_abs2_diff(
                  h * h, zkcm::CMatrix::identity(2, 256)),
              1e-60);
}

TEST(ZkcmApp, PhaseGateEighthRootOfUnity)
{
    const auto r3 = zkcm::phase_gate(256, 3); // e^{2 pi i / 8}
    // (R_3)^8 = I on the phase entry.
    auto acc = zkcm::CMatrix::identity(2, 256);
    for (int i = 0; i < 8; ++i)
        acc = acc * r3;
    EXPECT_LT(zkcm::CMatrix::max_abs2_diff(
                  acc, zkcm::CMatrix::identity(2, 256)),
              1e-60);
}

TEST(ZkcmApp, KroneckerDimensions)
{
    const auto h = zkcm::hadamard(128);
    const auto hh = zkcm::CMatrix::kron(h, h);
    EXPECT_EQ(hh.rows(), 4u);
    EXPECT_LT(zkcm::unitarity_error(hh), 1e-30);
}

TEST(ZkcmApp, QftMatchesClosedForm)
{
    // QFT entries: (1/sqrt(N)) w^{jk}, w = e^{2 pi i / N}.
    const unsigned qubits = 3;
    const std::size_t dim = 8;
    const std::uint64_t prec = 192;
    const auto u = zkcm::qft_circuit(qubits, prec);
    EXPECT_LT(zkcm::unitarity_error(u), 1e-40);
    const double inv_sqrt_n = 1.0 / std::sqrt(8.0);
    double max_err = 0;
    for (std::size_t j = 0; j < dim; ++j) {
        for (std::size_t k = 0; k < dim; ++k) {
            const double angle = 2.0 * M_PI *
                                 static_cast<double>(j * k % dim) / 8.0;
            const std::complex<double> expect =
                inv_sqrt_n * std::polar(1.0, angle);
            // The circuit realizes QFT with bit-reversed output order.
            std::size_t jr = 0;
            for (unsigned b = 0; b < qubits; ++b)
                jr |= ((j >> b) & 1) << (qubits - 1 - b);
            const auto& got = u.at(jr, k);
            max_err = std::max(
                max_err,
                std::abs(std::complex<double>(got.re.to_double(),
                                              got.im.to_double()) -
                         expect));
        }
    }
    EXPECT_LT(max_err, 1e-12);
}

TEST(RsaApp, PrimeGenerationIsDeterministic)
{
    const Natural p1 = rsa::generate_prime(64, 7);
    const Natural p2 = rsa::generate_prime(64, 7);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(p1.bits(), 64u);
    EXPECT_TRUE(camp::mpz::Integer::is_probable_prime(p1));
}

TEST(RsaApp, EncryptDecryptRoundTrip)
{
    const rsa::KeyPair key = rsa::generate_key(256, 42);
    camp::Rng rng(130);
    for (int iter = 0; iter < 5; ++iter) {
        const Natural message =
            Natural::random_bits(rng, 255) % key.n;
        const Natural cipher = rsa::encrypt(message, key);
        EXPECT_NE(cipher, message);
        EXPECT_EQ(rsa::decrypt(cipher, key), message);
    }
}

TEST(RsaApp, KeyInternalConsistency)
{
    const rsa::KeyPair key = rsa::generate_key(128, 9);
    EXPECT_EQ(key.p * key.q, key.n);
    const Natural phi = (key.p - Natural(1)) * (key.q - Natural(1));
    EXPECT_EQ((key.e * key.d) % phi, Natural(1));
}

TEST(RsaApp, CrtDecryptMatchesFullExponent)
{
    // CRT decrypt against one full-size c^d mod n. Odd modulus widths
    // give q one more bit than p, so q > p is covered with m2 often
    // above m1 + p; even widths give either order.
    using camp::mpz::Integer;
    const std::uint64_t seed = fuzz_seed(0xc47dec0ull);
    camp::Rng rng(seed);
    int q_above_p = 0, p_above_q = 0;
    for (const std::uint64_t bits : {64, 65, 127, 128, 256, 383, 512,
                                     1023, 1024}) {
        const rsa::KeyPair key = rsa::generate_key(bits, seed + bits);
        (key.q > key.p ? q_above_p : p_above_q) += 1;
        std::vector<Natural> ciphers = {Natural(), Natural(1),
                                        key.n - Natural(1)};
        for (int i = 0; i < 3; ++i) {
            ciphers.push_back(
                key.p * (Natural::random_bits(rng, key.q.bits()) % key.q));
            ciphers.push_back(
                key.q * (Natural::random_bits(rng, key.p.bits()) % key.p));
        }
        for (int i = 0; i < 8; ++i)
            ciphers.push_back(Natural::random_bits(rng, key.n.bits()) %
                              key.n);
        for (const Natural& c : ciphers)
            ASSERT_EQ(rsa::decrypt(c, key), Integer::powmod(c, key.d, key.n))
                << "bits=" << bits << " c=" << c.to_hex()
                << " q>p=" << (key.q > key.p)
                << " CAMP_FUZZ_SEED=" << seed;
    }
    EXPECT_GT(q_above_p, 0);
    EXPECT_GT(p_above_q, 0) << "no key with p > q; change the seeds";
}

TEST(RsaApp, FaultyCrtHalfFailsReencryption)
{
    // A wrong half (here dp off by one) must not leak out as a
    // plaintext: the re-encryption check throws Internal.
    rsa::KeyPair key = rsa::generate_key(256, 77);
    key.dp += Natural(1);
    const Natural cipher = rsa::encrypt(Natural(123456789), key);
    try {
        rsa::decrypt(cipher, key);
        FAIL() << "faulty CRT half was not detected";
    } catch (const camp::Error& e) {
        EXPECT_EQ(e.code(), camp::ErrorCode::Internal);
    }
}

namespace {

/** The primality test generate_prime used before trial division: the
 * 12 primes up to 37 by full division, then Miller–Rabin. */
bool
twelve_prime_probable_prime(const Natural& n, int rounds, std::uint64_t seed)
{
    using camp::mpz::Integer;
    if (n < Natural(2))
        return false;
    for (std::uint64_t p : {2u, 3u, 5u, 7u, 11u, 13u, 17u, 19u, 23u,
                            29u, 31u, 37u}) {
        if (n == Natural(p))
            return true;
        if ((n % Natural(p)).is_zero())
            return false;
    }
    const Natural nm1 = n - Natural(1);
    std::uint64_t s = 0;
    Natural d = nm1;
    while (!d.is_odd()) {
        d >>= 1;
        ++s;
    }
    camp::Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
        Natural base =
            Natural::random_bits(rng, n.bits()) % (n - Natural(3));
        base += Natural(2);
        Natural x = Integer::powmod(base, d, n);
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

/** generate_prime's candidate walk over twelve_prime_probable_prime. */
Natural
twelve_prime_generate_prime(std::uint64_t bits, std::uint64_t seed)
{
    camp::Rng rng(seed);
    for (int attempt = 0; attempt < 100000; ++attempt) {
        Natural candidate = Natural::random_bits(rng, bits);
        if (!candidate.is_odd())
            candidate += Natural(1);
        if (twelve_prime_probable_prime(candidate, 20, seed + attempt))
            return candidate;
    }
    return Natural();
}

} // namespace

TEST(RsaApp, KeygenUnchangedByTrialDivision)
{
    // Trial division only moves the rejection of candidates with a
    // small factor ahead of Miller–Rabin, so the search must land on
    // the same primes, and keys stay what they were.
    const std::uint64_t seed = fuzz_seed(0x7d1a1ull);
    for (const std::uint64_t bits : {512, 1024})
        for (std::uint64_t k = 0; k < 8; ++k)
            ASSERT_EQ(rsa::generate_prime(bits, seed + k),
                      twelve_prime_generate_prime(bits, seed + k))
                << "bits=" << bits << " seed=" << seed + k
                << " CAMP_FUZZ_SEED=" << seed;
}

TEST(RsaApp, ModexpWorkloadDeterministic)
{
    const auto c1 = rsa::modexp_workload(512, 3, 99);
    const auto c2 = rsa::modexp_workload(512, 3, 99);
    EXPECT_EQ(c1, c2);
    EXPECT_NE(c1, rsa::modexp_workload(512, 3, 100));
}

#include "apps/zkcm/statevector.hpp"

TEST(ZkcmStateVector, NormIsPreserved)
{
    using namespace camp::apps::zkcm;
    StateVector state = StateVector::basis(4, 5, 256);
    apply_qft(state);
    const double norm = state.norm2().to_double();
    EXPECT_NEAR(norm, 1.0, 1e-40);
}

TEST(ZkcmStateVector, MatchesMatrixCircuitOnAllBasisStates)
{
    using namespace camp::apps::zkcm;
    const unsigned qubits = 3;
    const std::uint64_t prec = 192;
    const CMatrix u = qft_circuit(qubits, prec);
    for (std::size_t basis = 0; basis < (1u << qubits); ++basis) {
        StateVector state = StateVector::basis(qubits, basis, prec);
        apply_qft(state);
        // Column `basis` of the matrix must equal the evolved state.
        double max_err = 0;
        for (std::size_t row = 0; row < (1u << qubits); ++row) {
            const Complex d = u.at(row, basis) - state.amplitude(row);
            max_err = std::max(max_err, d.norm2().to_double());
        }
        EXPECT_LT(max_err, 1e-40) << "basis " << basis;
    }
}

TEST(ZkcmStateVector, SwapAndControlledGates)
{
    using namespace camp::apps::zkcm;
    const std::uint64_t prec = 128;
    // |10> --swap--> |01>.
    StateVector state = StateVector::basis(2, 2, prec);
    state.swap_qubits(0, 1);
    EXPECT_NEAR(state.amplitude(1).norm2().to_double(), 1.0, 1e-30);
    // Controlled-X on |11> flips the target: |11> -> |10>.
    StateVector cx = StateVector::basis(2, 3, prec);
    cx.apply_controlled(pauli_x(prec), 0, 1);
    EXPECT_NEAR(cx.amplitude(2).norm2().to_double(), 1.0, 1e-30);
    // Control clear: no action on |01>.
    StateVector idle = StateVector::basis(2, 1, prec);
    idle.apply_controlled(pauli_x(prec), 0, 1);
    EXPECT_NEAR(idle.amplitude(1).norm2().to_double(), 1.0, 1e-30);
}

TEST(ZkcmStateVector, LargerRegisterThanMatrixPath)
{
    // 10 qubits = 1024 amplitudes: far beyond what the 2^n x 2^n
    // matrix path could build, demonstrating the state-vector shape.
    using namespace camp::apps::zkcm;
    StateVector state = StateVector::basis(10, 123, 128);
    apply_qft(state);
    EXPECT_NEAR(state.norm2().to_double(), 1.0, 1e-25);
}

TEST(PiApp, ThousandthDigitTailMatchesIndependentReference)
{
    // Tail digits 971..1000 cross-checked against an independent
    // Decimal-based Chudnovsky evaluation.
    const std::string pi1000 = pi_app::compute_pi(1000);
    EXPECT_EQ(pi1000.substr(pi1000.size() - 30),
              "130019278766111959092164201989");
}

#include "apps/nbody/nbody.hpp"

TEST(NbodyApp, MultiprecisionEnergyIsPrecisionStable)
{
    using namespace camp::apps::nbody;
    const auto charges = cancellation_lattice(3, 7);
    const auto e256 = coulomb_energy(charges, 256);
    const auto e512 = coulomb_energy(charges, 512);
    const auto diff = camp::mpf::Float::abs(e512 - e256);
    EXPECT_TRUE(diff.is_zero() || diff.magnitude_exp() <
                                      e512.magnitude_exp() - 200);
    // Double agrees to leading digits only.
    const double d = coulomb_energy_double(charges);
    EXPECT_NEAR(d, e512.to_double(), std::abs(d) * 1e-9 + 1e-12);
}

TEST(NbodyApp, TwoChargeClosedForm)
{
    using namespace camp::apps::nbody;
    // Unit charges at distance 2: E = -1/2.
    const std::vector<Charge> pair{{0, 0, 0, 1}, {2, 0, 0, -1}};
    EXPECT_DOUBLE_EQ(coulomb_energy(pair, 128).to_double(), -0.5);
    EXPECT_DOUBLE_EQ(coulomb_energy_double(pair), -0.5);
}
