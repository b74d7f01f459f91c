/**
 * @file
 * Operand-digest inverse cache (support::OpCache, DESIGN.md §16):
 * unit behavior (LRU, byte budgets, sharding, forced digest
 * collisions), the immutability negative control (a payload mutated
 * behind the cache's back throws camp::Error(Internal) instead of
 * being served), the ≥1000-case cache-on vs cache-off differential
 * fuzz across modexp / divrem / pi / frac, the incremental-path
 * property tests (pi binary-splitting growth, frac reference-orbit
 * extension), and concurrent hit/miss/evict traffic from the PR-2
 * thread pool (the TSan leg's target).
 *
 * Seeds: randomized tests use a fixed per-test default seed,
 * overridable with CAMP_FUZZ_SEED; failure messages carry the
 * effective seed for exact replay.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/frac/mandelbrot.hpp"
#include "apps/pi/chudnovsky.hpp"
#include "fuzz_seed.hpp"
#include "mpn/natural.hpp"
#include "mpn/newton.hpp"
#include "mpz/integer.hpp"
#include "support/errors.hpp"
#include "support/opcache.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace support = camp::support;
using camp::Rng;
using camp::mpn::Natural;
using camp::mpz::Integer;
using support::OpCache;
using support::OpCacheStats;
using support::OpKey;
using support::OpTag;
using support::OpValue;

namespace {

/** RAII around the process-global cache: force a known enabled state
 * and a cold start, restore the entry state on exit. */
class GlobalCacheGuard
{
  public:
    explicit GlobalCacheGuard(bool enabled)
        : saved_(OpCache::global().enabled())
    {
        OpCache::global().set_enabled(enabled);
        OpCache::global().clear();
    }

    ~GlobalCacheGuard()
    {
        OpCache::global().set_enabled(saved_);
        OpCache::global().clear();
    }

  private:
    bool saved_;
};

/** Run @p compute with the global cache disabled (the differential
 * "off" arm), restoring the previous state afterwards. */
template <typename Fn>
auto
with_cache_disabled(Fn&& compute)
{
    OpCache& cache = OpCache::global();
    const bool saved = cache.enabled();
    cache.set_enabled(false);
    auto result = compute();
    cache.set_enabled(saved);
    return result;
}

OpValue
test_value(std::uint64_t word, std::size_t limbs = 1)
{
    OpValue value;
    value.parts.emplace_back(limbs, word);
    value.scalars.push_back(word ^ 0xabcdef);
    return value;
}

} // namespace

// ---------------------------------------------------------------------
// Unit behavior
// ---------------------------------------------------------------------

TEST(OpCacheUnit, MissThenHitRoundTripsTheValue)
{
    OpCache cache(1 << 20, true, 4, "opcache.test");
    const OpKey key = support::make_key(OpTag::Test, {1, 2, 3});
    EXPECT_EQ(cache.lookup(key), nullptr);
    cache.insert(key, test_value(42, 3));
    const auto hit = cache.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->parts[0], (std::vector<std::uint64_t>{42, 42, 42}));
    EXPECT_EQ(hit->scalars[0], 42u ^ 0xabcdefu);
    const OpCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(OpCacheUnit, ReplacementKeepsOneEntryPerKey)
{
    OpCache cache(1 << 20, true, 1, "opcache.test");
    const OpKey key = support::make_key(OpTag::Test, {7});
    cache.insert(key, test_value(1));
    cache.insert(key, test_value(2, 8)); // supersedes, larger payload
    const auto hit = cache.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->parts[0].size(), 8u);
    EXPECT_EQ(hit->parts[0][0], 2u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(OpCacheUnit, LruEvictionPrefersStaleEntries)
{
    // One shard so the LRU order is global; budget fits roughly two
    // entries of this payload size (entry overhead is 128 bytes).
    OpCache cache(600, true, 1, "opcache.test");
    const OpKey a = support::make_key(OpTag::Test, {1});
    const OpKey b = support::make_key(OpTag::Test, {2});
    const OpKey c = support::make_key(OpTag::Test, {3});
    cache.insert(a, test_value(1, 8));
    cache.insert(b, test_value(2, 8));
    ASSERT_NE(cache.lookup(a), nullptr); // refresh a: b is now LRU
    cache.insert(c, test_value(3, 8));   // evicts b, not a
    EXPECT_NE(cache.lookup(a), nullptr);
    EXPECT_EQ(cache.lookup(b), nullptr);
    EXPECT_NE(cache.lookup(c), nullptr);
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_LE(cache.stats().bytes, 600u);
}

TEST(OpCacheUnit, TinyBudgetChurnsButStaysWithinBytes)
{
    OpCache cache(1024, true, 2, "opcache.test");
    for (std::uint64_t i = 0; i < 200; ++i) {
        cache.insert(support::make_key(OpTag::Test, {i}),
                     test_value(i, 4));
        EXPECT_LE(cache.stats().bytes, 1024u);
    }
    const OpCacheStats stats = cache.stats();
    EXPECT_EQ(stats.inserts, 200u);
    EXPECT_GT(stats.evictions, 100u);
    EXPECT_GT(stats.entries, 0u);
}

TEST(OpCacheUnit, OversizedValueIsRefusedNotChurned)
{
    OpCache cache(512, true, 2, "opcache.test"); // 256 per shard
    cache.insert(support::make_key(OpTag::Test, {1}), test_value(1));
    ASSERT_EQ(cache.stats().entries, 1u);
    // A payload bigger than a whole shard budget must not wipe the
    // shard only to be evicted itself.
    cache.insert(support::make_key(OpTag::Test, {2}),
                 test_value(2, 4096));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(OpCacheUnit, DisabledCacheIsInert)
{
    OpCache cache(1 << 20, false, 4, "opcache.test");
    const OpKey key = support::make_key(OpTag::Test, {5});
    cache.insert(key, test_value(5));
    EXPECT_EQ(cache.lookup(key), nullptr);
    const OpCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST(OpCacheUnit, TagIsPartOfTheIdentity)
{
    OpCache cache(1 << 20, true, 4, "opcache.test");
    cache.insert(support::make_key(OpTag::Reciprocal, {9}),
                 test_value(1));
    // Same material, different semantic tag: a different constant.
    EXPECT_EQ(cache.lookup(support::make_key(OpTag::Montgomery, {9})),
              nullptr);
    EXPECT_NE(cache.lookup(support::make_key(OpTag::Reciprocal, {9})),
              nullptr);
}

// ---------------------------------------------------------------------
// Forced digest collisions
// ---------------------------------------------------------------------

TEST(OpCacheCollisions, SameDigestDifferentMaterialCoexist)
{
    OpCache cache(1 << 20, true, 4, "opcache.test");
    OpKey a = support::make_key(OpTag::Test, {11, 12});
    OpKey b = support::make_key(OpTag::Test, {99, 98, 97});
    b.digest = a.digest; // forced collision: digest routes, material decides
    cache.insert(a, test_value(1));
    cache.insert(b, test_value(2));
    EXPECT_EQ(cache.stats().entries, 2u);

    const auto hit_a = cache.lookup(a);
    const auto hit_b = cache.lookup(b);
    ASSERT_NE(hit_a, nullptr);
    ASSERT_NE(hit_b, nullptr);
    EXPECT_EQ(hit_a->parts[0][0], 1u);
    EXPECT_EQ(hit_b->parts[0][0], 2u);
    // Every colliding-chain scan was counted.
    EXPECT_GT(cache.stats().collisions, 0u);
}

TEST(OpCacheCollisions, CollidingLookupIsAMissNeverAWrongHit)
{
    OpCache cache(1 << 20, true, 4, "opcache.test");
    const OpKey real = support::make_key(OpTag::Test, {21, 22});
    cache.insert(real, test_value(7));
    OpKey impostor = support::make_key(OpTag::Test, {31, 32, 33});
    impostor.digest = real.digest;
    EXPECT_EQ(cache.lookup(impostor), nullptr);
    EXPECT_EQ(cache.stats().collisions, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

// ---------------------------------------------------------------------
// Immutability negative control (the PR-8 stale-view discipline)
// ---------------------------------------------------------------------

TEST(OpCacheNegativeControl, MutatedPayloadThrowsInternalOnNextHit)
{
    OpCache cache(1 << 20, true, 1, "opcache.test");
    const OpKey key = support::make_key(OpTag::Test, {77});
    cache.insert(key, test_value(77, 4));
    const auto hit = cache.lookup(key);
    ASSERT_NE(hit, nullptr);

    // Simulate the aliasing bug the contract defends against: a caller
    // scribbling over the cached limb span it was handed.
    auto& corrupt = const_cast<OpValue&>(*hit);
    corrupt.parts[0][2] ^= 0x1;

    try {
        cache.lookup(key);
        FAIL() << "mutated payload was served";
    } catch (const camp::Error& error) {
        EXPECT_EQ(error.code(), camp::ErrorCode::Internal);
    }
}

TEST(OpCacheNegativeControl, IntactPayloadKeepsVerifyingClean)
{
    // Control for the control: many lookups of an untouched payload
    // never trip the checksum.
    OpCache cache(1 << 20, true, 1, "opcache.test");
    const OpKey key = support::make_key(OpTag::Test, {78});
    cache.insert(key, test_value(78, 4));
    for (int i = 0; i < 100; ++i)
        EXPECT_NO_THROW({ ASSERT_NE(cache.lookup(key), nullptr); });
}

TEST(OpCacheNegativeControl, HitsHandOutCopiesNotViews)
{
    // The mpn call sites copy limbs out of the payload; mutating the
    // copy must not poison the cache (copy-on-return guard).
    GlobalCacheGuard guard(true);
    Rng rng(fuzz_seed(0x0cac8e01));
    const Natural d = Natural::random_bits(rng, 200) | Natural(1);
    const Natural r1 = camp::mpn::newton_reciprocal(d, 128);
    Natural mutated = camp::mpn::newton_reciprocal(d, 128); // cache hit
    mutated += Natural(1); // caller-side mutation of the returned copy
    const Natural r2 = camp::mpn::newton_reciprocal(d, 128);
    EXPECT_EQ(r1, r2);
    EXPECT_NE(mutated, r2);
    EXPECT_GT(OpCache::global().stats().hits, 0u);
}

// ---------------------------------------------------------------------
// Differential fuzz: cache-on vs cache-off, bit identical
// ---------------------------------------------------------------------

namespace {

/** Odd random modulus of ~bits bits (Montgomery wants odd). */
Natural
random_odd(Rng& rng, std::uint64_t bits)
{
    return Natural::random_bits(rng, bits) | Natural(1);
}

} // namespace

TEST(OpCacheFuzz, DifferentialModexpAndDivrem)
{
    const std::uint64_t seed = fuzz_seed(0x0cac8e10);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    GlobalCacheGuard guard(true);
    Rng rng(seed);

    // A small modulus/divisor pool per chunk produces the repeated
    // operands the cache exists for: within a chunk most cases hit.
    constexpr int kChunks = 10;
    constexpr int kCasesPerChunk = 45; // 2 ops/case, 900 cases total
    for (int chunk = 0; chunk < kChunks; ++chunk) {
        std::vector<Natural> moduli;
        for (int i = 0; i < 4; ++i)
            moduli.push_back(random_odd(rng, 128 + rng.below(192)));
        // One even modulus exercises the square-and-mod ladder (whose
        // divisions reach the Newton-reciprocal cache path).
        moduli.push_back(Natural::random_bits(rng, 192) << 1 |
                         Natural(2));

        // Forced digest collisions against *live* keys: before any
        // division runs, forge a foreign entry onto every pool
        // divisor's future reciprocal digest. The real entries chain
        // behind these impostors, so every later hit must skip them
        // by the full material compare — a wrong hit would surface as
        // a differential mismatch below.
        for (std::size_t m = 0; m < moduli.size(); ++m) {
            OpKey forged = support::make_key(
                OpTag::Test,
                {0xdeadbeef, static_cast<std::uint64_t>(chunk), m});
            forged.digest =
                support::make_key(OpTag::Reciprocal, moduli[m].limbs())
                    .digest;
            OpCache::global().insert(forged, test_value(0xbad));
        }

        for (int i = 0; i < kCasesPerChunk; ++i) {
            SCOPED_TRACE("chunk " + std::to_string(chunk) + " case " +
                         std::to_string(i));
            // modexp case.
            const Natural& m = moduli[rng.below(moduli.size())];
            const Natural base =
                Natural::random_bits(rng, 32 + rng.below(256));
            const Natural exp =
                Natural::random_bits(rng, 8 + rng.below(56));
            const Natural on = Integer::powmod(base, exp, m);
            const Natural off = with_cache_disabled(
                [&] { return Integer::powmod(base, exp, m); });
            ASSERT_EQ(on, off);

            // divrem case, through the Newton reciprocal path.
            const Natural d = moduli[rng.below(moduli.size())];
            const Natural a =
                Natural::random_bits(rng, 256 + rng.below(768));
            const auto qr_on = camp::mpn::divrem_newton(a, d);
            const auto qr_off = with_cache_disabled(
                [&] { return camp::mpn::divrem_newton(a, d); });
            ASSERT_EQ(qr_on.first, qr_off.first);
            ASSERT_EQ(qr_on.second, qr_off.second);
            ASSERT_EQ(qr_on.first * d + qr_on.second, a);
        }
    }
    const OpCacheStats stats = OpCache::global().stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.collisions, 0u); // the forged entries were scanned
}

TEST(OpCacheFuzz, DifferentialPiAndFrac)
{
    const std::uint64_t seed = fuzz_seed(0x0cac8e11);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    GlobalCacheGuard guard(true);
    Rng rng(seed);

    // pi: an incremental calculator fed a random digit walk vs the
    // cold cache-off arm, exact string equality (60 cases).
    camp::apps::pi::PiCalculator calculator;
    for (int i = 0; i < 60; ++i) {
        const std::uint64_t digits = 10 + rng.below(120);
        SCOPED_TRACE("pi case " + std::to_string(i) + " digits " +
                     std::to_string(digits));
        const std::string on = calculator.digits(digits);
        const std::string off = with_cache_disabled(
            [&] { return camp::apps::pi::compute_pi(digits); });
        ASSERT_EQ(on, off);
    }

    // frac: a render session fed a random zoom/iteration walk vs the
    // cold cache-off arm, exact iteration-map equality (60 cases).
    camp::apps::frac::RenderSession session;
    camp::apps::frac::RenderParams params;
    params.width = 8;
    params.height = 6;
    params.precision_bits = 96;
    for (int i = 0; i < 60; ++i) {
        params.max_iterations =
            static_cast<unsigned>(10 + rng.below(80));
        params.zoom_log2 = static_cast<int>(4 + rng.below(40));
        SCOPED_TRACE("frac case " + std::to_string(i) + " iters " +
                     std::to_string(params.max_iterations));
        const auto on = session.render(params);
        const auto off = with_cache_disabled(
            [&] { return camp::apps::frac::render(params); });
        ASSERT_EQ(on.iterations, off.iterations);
        ASSERT_EQ(on.checksum, off.checksum);
        ASSERT_EQ(on.orbit_length, off.orbit_length);
    }
}

TEST(OpCacheFuzz, DifferentialSurvivesTinyBudgetEviction)
{
    // Same differential contract while the *global* cache thrashes: a
    // dedicated tiny instance is swapped in by clearing and shrinking
    // via a local cache… the global budget is fixed at construction,
    // so emulate pressure by spamming large foreign entries instead.
    const std::uint64_t seed = fuzz_seed(0x0cac8e12);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    GlobalCacheGuard guard(true);
    Rng rng(seed);
    for (int i = 0; i < 50; ++i) {
        const Natural d = random_odd(rng, 128 + rng.below(128));
        const Natural a = Natural::random_bits(rng, 512);
        const auto qr_on = camp::mpn::divrem_newton(a, d);
        const auto qr_off = with_cache_disabled(
            [&] { return camp::mpn::divrem_newton(a, d); });
        ASSERT_EQ(qr_on.first, qr_off.first);
        ASSERT_EQ(qr_on.second, qr_off.second);
        // Foreign churn: push the shards toward eviction between
        // cases so hits and evictions interleave.
        OpCache::global().insert(
            support::make_key(OpTag::Test,
                              {static_cast<std::uint64_t>(i)}),
            test_value(static_cast<std::uint64_t>(i), 4096));
    }
}

// ---------------------------------------------------------------------
// Incremental pi: growth == cold, boundaries included
// ---------------------------------------------------------------------

TEST(PiIncremental, GrowthWalkMatchesColdExactly)
{
    GlobalCacheGuard guard(true);
    camp::apps::pi::PiCalculator calculator;
    std::uint64_t digits = 40;
    // k = 0 (exact repeat), +1, +13 (same-terms regime), +100 and
    // +500 (new terms), chained so every step extends the last.
    const std::uint64_t steps[] = {0, 1, 13, 100, 500};
    for (const std::uint64_t k : steps) {
        digits += k;
        SCOPED_TRACE("digits " + std::to_string(digits));
        const std::string incremental = calculator.digits(digits);
        const std::string cold = camp::apps::pi::compute_pi(digits);
        ASSERT_EQ(incremental, cold);
        EXPECT_EQ(calculator.terms(),
                  camp::apps::pi::terms_for_digits(digits));
    }
}

TEST(PiIncremental, RepeatIsMemoizedAndFreshTermsAreCounted)
{
    GlobalCacheGuard guard(true);
    camp::apps::pi::PiCalculator calculator;
    calculator.digits(100);
    const std::uint64_t cold_terms = calculator.last_fresh_terms();
    EXPECT_EQ(cold_terms, camp::apps::pi::terms_for_digits(100));

    calculator.digits(100); // k = 0: memo, no new terms
    EXPECT_EQ(calculator.last_fresh_terms(), 0u);

    calculator.digits(101); // same term count, new scale only
    EXPECT_EQ(calculator.last_fresh_terms(), 0u);

    calculator.digits(400); // growth: only the tail is split
    EXPECT_EQ(calculator.last_fresh_terms(),
              camp::apps::pi::terms_for_digits(400) -
                  camp::apps::pi::terms_for_digits(101));
}

TEST(PiIncremental, TargetShrinkRecomputesExactly)
{
    GlobalCacheGuard guard(true);
    camp::apps::pi::PiCalculator calculator;
    calculator.digits(500);
    const std::string shrunk = calculator.digits(60);
    EXPECT_EQ(shrunk, camp::apps::pi::compute_pi(60));
    EXPECT_EQ(calculator.terms(),
              camp::apps::pi::terms_for_digits(60));
    // And growth from the shrunk state still extends correctly.
    EXPECT_EQ(calculator.digits(200),
              camp::apps::pi::compute_pi(200));
}

TEST(PiIncremental, MergeTriplesIsAssociative)
{
    // The exactness argument in one identity: any split point yields
    // the same triple, so incremental merge order cannot matter.
    using camp::apps::pi::binary_split;
    using camp::apps::pi::merge_triples;
    for (const std::uint64_t cut : {1ull, 2ull, 7ull, 19ull}) {
        const auto merged =
            merge_triples(binary_split(0, cut), binary_split(cut, 24));
        const auto whole = binary_split(0, 24);
        EXPECT_EQ(merged.p, whole.p);
        EXPECT_EQ(merged.q, whole.q);
        EXPECT_EQ(merged.t, whole.t);
    }
}

TEST(PiIncremental, CacheOffArmIsColdEveryCall)
{
    GlobalCacheGuard guard(false);
    camp::apps::pi::PiCalculator calculator;
    const std::string first = calculator.digits(80);
    EXPECT_EQ(calculator.last_fresh_terms(),
              camp::apps::pi::terms_for_digits(80));
    const std::string second = calculator.digits(80);
    // No memo with the cache off: the full split re-ran.
    EXPECT_EQ(calculator.last_fresh_terms(),
              camp::apps::pi::terms_for_digits(80));
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, camp::apps::pi::compute_pi(80));
}

// ---------------------------------------------------------------------
// Incremental frac: orbit extension == cold, boundaries included
// ---------------------------------------------------------------------

namespace {

camp::apps::frac::FloatComplex
default_center(std::uint64_t precision_bits)
{
    camp::apps::frac::RenderParams params;
    return {camp::apps::frac::parse_decimal(params.center_re,
                                            precision_bits),
            camp::apps::frac::parse_decimal(params.center_im,
                                            precision_bits)};
}

} // namespace

TEST(FracIncremental, OrbitExtensionMatchesColdExactly)
{
    const auto c = default_center(160);
    camp::apps::frac::OrbitTracker tracker(c);
    // Grow, repeat (k = 0), shrink (prefix view), grow again.
    for (const unsigned target : {50u, 200u, 200u, 30u, 400u}) {
        SCOPED_TRACE("target " + std::to_string(target));
        const auto incremental = tracker.orbit(target);
        const auto cold =
            camp::apps::frac::reference_orbit(c, target);
        ASSERT_EQ(incremental.size(), cold.size());
        for (std::size_t i = 0; i < cold.size(); ++i) {
            ASSERT_EQ(incremental[i].real(), cold[i].real());
            ASSERT_EQ(incremental[i].imag(), cold[i].imag());
        }
    }
    // The shrink and repeat steps cost zero full-precision points.
    tracker.orbit(400);
    EXPECT_EQ(tracker.last_fresh_points(), 0u);
}

TEST(FracIncremental, EscapedOrbitStopsExtendingForever)
{
    // A center far outside the set escapes immediately; any larger
    // target must return the identical short orbit.
    const camp::apps::frac::FloatComplex c{
        camp::apps::frac::parse_decimal("2.5", 128),
        camp::apps::frac::parse_decimal("0.0", 128)};
    camp::apps::frac::OrbitTracker tracker(c);
    const auto first = tracker.orbit(10);
    EXPECT_TRUE(tracker.escaped());
    const auto more = tracker.orbit(1000);
    EXPECT_EQ(first.size(), more.size());
    EXPECT_EQ(tracker.last_fresh_points(), 0u);
    const auto cold = camp::apps::frac::reference_orbit(c, 1000);
    EXPECT_EQ(more.size(), cold.size());
}

TEST(FracIncremental, RenderSessionZoomSequenceMatchesColdRender)
{
    GlobalCacheGuard guard(true);
    camp::apps::frac::RenderSession session;
    camp::apps::frac::RenderParams params;
    params.width = 16;
    params.height = 12;
    params.precision_bits = 192;
    std::size_t cold_points = 0;
    for (const unsigned zoom_step : {0u, 1u, 2u, 3u}) {
        params.zoom_log2 = static_cast<int>(20 + 8 * zoom_step);
        params.max_iterations = 200 + 150 * zoom_step;
        SCOPED_TRACE("zoom " + std::to_string(params.zoom_log2));
        const auto incremental = session.render(params);
        const auto cold = camp::apps::frac::render(params);
        ASSERT_EQ(incremental.iterations, cold.iterations);
        ASSERT_EQ(incremental.checksum, cold.checksum);
        ASSERT_EQ(incremental.orbit_length, cold.orbit_length);
        if (zoom_step == 0)
            cold_points = session.last_fresh_points();
        else
            // Each deeper frame only iterated the new orbit tail.
            EXPECT_LT(session.last_fresh_points(), cold_points);
    }

    // A center change resets the session (no stale-orbit reuse).
    params.center_re = "-0.5";
    params.center_im = "0.0";
    const auto moved = session.render(params);
    const auto moved_cold = camp::apps::frac::render(params);
    EXPECT_EQ(moved.iterations, moved_cold.iterations);
}

// ---------------------------------------------------------------------
// Concurrency: hit/miss/evict from the thread pool (TSan target)
// ---------------------------------------------------------------------

TEST(OpCacheConcurrency, ParallelHitMissEvictStaysCoherent)
{
    const std::uint64_t seed = fuzz_seed(0x0cac8e20);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    // Budget sized to force eviction churn while lookups race.
    OpCache cache(8 * 1024, true, 4, "opcache.test");
    constexpr unsigned kTasks = 16;
    constexpr int kOpsPerTask = 400;
    constexpr std::uint64_t kKeySpace = 64;
    std::atomic<std::uint64_t> wrong_payloads{0};

    camp::support::TaskGroup group;
    for (unsigned t = 0; t < kTasks; ++t) {
        group.run([&cache, &wrong_payloads, t, seed] {
            Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
            for (int i = 0; i < kOpsPerTask; ++i) {
                const std::uint64_t id = rng.below(kKeySpace);
                const OpKey key =
                    support::make_key(OpTag::Test, {id, id * 3});
                if (const auto hit = cache.lookup(key)) {
                    // Payload is a pure function of the key: any
                    // cross-key mixup is corruption.
                    if (hit->parts[0][0] != id * 31 ||
                        hit->scalars[0] != ((id * 31) ^ 0xabcdef))
                        wrong_payloads.fetch_add(1);
                } else {
                    cache.insert(key,
                                 test_value(id * 31, 1 + id % 32));
                }
            }
        });
    }
    group.wait();

    EXPECT_EQ(wrong_payloads.load(), 0u);
    const OpCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
    EXPECT_LE(stats.bytes, 8u * 1024u);
    EXPECT_GT(stats.evictions, 0u);
}

TEST(OpCacheConcurrency, ParallelDivisionSharesTheGlobalCache)
{
    const std::uint64_t seed = fuzz_seed(0x0cac8e21);
    SCOPED_TRACE("CAMP_FUZZ_SEED=" + std::to_string(seed));
    GlobalCacheGuard guard(true);
    Rng setup(seed);
    // A shared divisor pool: workers race miss-then-insert on the
    // same reciprocal keys, then verify exactness independently.
    std::vector<Natural> divisors;
    for (int i = 0; i < 6; ++i)
        divisors.push_back(random_odd(setup, 160 + setup.below(96)));

    std::atomic<std::uint64_t> mismatches{0};
    camp::support::TaskGroup group;
    for (unsigned t = 0; t < 8; ++t) {
        group.run([&divisors, &mismatches, t, seed] {
            Rng rng(seed + 1000 * (t + 1));
            for (int i = 0; i < 25; ++i) {
                const Natural& d = divisors[rng.below(divisors.size())];
                const Natural a = Natural::random_bits(rng, 640);
                const auto [q, r] = camp::mpn::divrem_newton(a, d);
                if (q * d + r != a || r >= d)
                    mismatches.fetch_add(1);
            }
        });
    }
    group.wait();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(OpCache::global().stats().hits, 0u);
}
