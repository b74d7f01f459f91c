/**
 * @file
 * Operand-digest inverse cache (ROADMAP item 4): a sharded,
 * thread-safe, byte-budgeted LRU of expensive derived constants keyed
 * by (semantic tag, operand digest). ARCHITECT observes that iterative
 * arbitrary-precision compute touches few high-order digits between
 * iterations; at the runtime layer that shows up as *repeated
 * operands* — the same RSA modulus across a session of modexps, the
 * same divisor across a burst of divisions, the same operand pair
 * resubmitted to the serving front-end. This cache lets those repeats
 * skip the expensive derivation (Newton reciprocals, Montgomery
 * constants, whole products at the serving edge) instead of
 * recomputing it.
 *
 * Correctness contract — a hit must NEVER change a result:
 *  - The digest (FNV-1a over the full key material) only selects a
 *    bucket. Every hit re-compares the *entire* key material limb by
 *    limb before the value is used; a digest collision is counted
 *    (opcache.collisions) and treated as a miss for the colliding key,
 *    which is stored alongside under the same digest.
 *  - Cached payloads are immutable post-insert: the cache hands out
 *    shared_ptr<const OpValue> and every hit re-verifies an FNV
 *    checksum taken at insert time. A payload that was mutated behind
 *    the cache's back (the stale-view / aliasing bug class PR-8's
 *    poisoning discipline targets) throws camp::Error(Internal)
 *    instead of silently serving a corrupt constant. Call sites copy
 *    limbs out of the payload (copy-on-return), so no caller ever
 *    holds a mutable view of cached storage.
 *  - Values cached here are *exact* derived constants (floor
 *    reciprocals, Montgomery R/R^2/n0inv, exact products), so
 *    cache-on and cache-off runs are bit-identical by construction;
 *    tests/test_opcache.cpp fuzzes that differentially.
 *
 * Budget: eviction is strict LRU per shard with the global
 * CAMP_OPCACHE_BYTES budget split evenly across shards (a shard never
 * holds more than budget/shards bytes). CAMP_OPCACHE=0 disables every
 * lookup and insert (the cold path: one relaxed load per call).
 *
 * Metrics: <prefix>.{hits,misses,evictions,inserts,collisions} counters
 * and a <prefix>.bytes gauge ("opcache" for the global instance,
 * "opcache.serve" for the serving layer's product cache).
 */
#ifndef CAMP_SUPPORT_OPCACHE_HPP
#define CAMP_SUPPORT_OPCACHE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace camp::support {

/** Semantic tag of a cached constant; part of the key. */
enum class OpTag : std::uint64_t
{
    Reciprocal = 1, ///< floor(2^(bits(d)+extra) / d), mpn/newton.cpp
    Montgomery = 2, ///< n0inv, R mod n, R^2 mod n, mpn/mont.cpp
    Product = 3,    ///< exact a*b, serving-layer repeat traffic
    Test = 99,      ///< reserved for unit tests (forced collisions)
};

/**
 * Cache key: the digest routes to a bucket, the material decides. The
 * material must encode *everything* the cached value depends on
 * (operand limbs plus scalar parameters); make_key computes the
 * digest, but tests may set it directly to force collisions.
 */
struct OpKey
{
    std::uint64_t tag = 0;
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> material;

    std::size_t bytes() const
    {
        return material.size() * sizeof(std::uint64_t) +
               2 * sizeof(std::uint64_t);
    }
};

/** FNV-1a over 64-bit words: the key digest that routes a lookup to
 * its bucket. */
std::uint64_t fnv1a_words(const std::uint64_t* words, std::size_t n,
                          std::uint64_t seed = 1469598103934665603ULL);

/** Build a key over @p material for @p tag (digest filled in). */
OpKey make_key(OpTag tag, std::vector<std::uint64_t> material);

/**
 * Cached payload: limb vectors plus small scalars. Immutable once
 * inserted (enforced by constness plus the insert-time checksum).
 */
struct OpValue
{
    std::vector<std::vector<std::uint64_t>> parts;
    std::vector<std::uint64_t> scalars;

    std::size_t
    bytes() const
    {
        std::size_t total = scalars.size() * sizeof(std::uint64_t);
        for (const auto& part : parts)
            total += part.size() * sizeof(std::uint64_t) +
                     sizeof(std::uint64_t);
        return total;
    }
};

/** Point-in-time counters of one cache instance. */
struct OpCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::uint64_t collisions = 0; ///< digest matched, material did not
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
};

class OpCache
{
  public:
    /**
     * @p max_bytes total budget (split across @p shards);
     * @p metrics_prefix names the registry counters; @p enabled off
     * turns lookup/insert into no-ops (the differential "cache-off"
     * arm).
     */
    explicit OpCache(std::size_t max_bytes, bool enabled = true,
                     unsigned shards = 8,
                     std::string metrics_prefix = "opcache");
    ~OpCache();

    OpCache(const OpCache&) = delete;
    OpCache& operator=(const OpCache&) = delete;

    /**
     * The verified value for @p key, or nullptr on miss / disabled
     * cache. A hit compares the full key material and re-verifies the
     * payload checksum (camp::Error(Internal) on mutation). Refreshes
     * LRU position.
     */
    std::shared_ptr<const OpValue> lookup(const OpKey& key);

    /**
     * Insert (or replace) the value for @p key. Entries whose key
     * material matches are replaced in place; colliding digests with
     * different material coexist. Evicts LRU entries of the shard
     * until the shard budget holds. Oversized values (bigger than a
     * whole shard's budget) are not cached. No-op when disabled. The
     * key is taken by value so a caller done with it can move it in.
     */
    void insert(OpKey key, OpValue value);

    /** Drop every entry (stats counters are kept). */
    void clear();

    /** Aggregate counters across shards. */
    OpCacheStats stats() const;

    bool enabled() const;

    /** Toggle at runtime (tests and differential benches); does not
     * drop entries — pair with clear() for a cold restart. */
    void set_enabled(bool on);

    std::size_t max_bytes() const;

    /**
     * The process-wide instance used by the mpn/mpz layers,
     * constructed on first use from CAMP_OPCACHE (default on) and
     * CAMP_OPCACHE_BYTES (default 32 MiB), metrics prefix "opcache".
     */
    static OpCache& global();

    /** CAMP_OPCACHE as parsed for the global instance (and the
     * default for layers with their own enable knob). */
    static bool env_enabled();

    /** CAMP_OPCACHE_BYTES as parsed for the global instance. */
    static std::size_t env_max_bytes();

  private:
    struct Shard;
    struct Impl;

    /** Evict LRU entries until @p shard is within its budget; the
     * shard's mutex must be held. */
    void evict_locked(Shard& shard);

    std::unique_ptr<Impl> impl_;
};

} // namespace camp::support

#endif // CAMP_SUPPORT_OPCACHE_HPP
