#include "support/opcache.hpp"

#include <algorithm>
#include <atomic>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/errors.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace camp::support {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** Checksum of a payload at insert time; re-verified on every hit so a
 * mutated-in-place cached buffer is detected, never served. */
std::uint64_t
value_checksum(const OpValue& value)
{
    std::uint64_t hash =
        fnv1a_words(value.scalars.data(), value.scalars.size());
    for (const auto& part : value.parts) {
        const std::uint64_t len = part.size();
        hash = fnv1a_words(&len, 1, hash);
        hash = fnv1a_words(part.data(), part.size(), hash);
    }
    return hash;
}

/** Fixed per-entry bookkeeping estimate (list node, map slot,
 * control block) so the byte budget is honest about overhead. */
constexpr std::size_t kEntryOverhead = 128;

} // namespace

std::uint64_t
fnv1a_words(const std::uint64_t* words, std::size_t n,
            std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < n; ++i) {
        // Word-at-a-time FNV-1a (the scheduler's operand-digest
        // variant): xor the limb, then one multiply.
        hash ^= words[i];
        hash *= kFnvPrime;
    }
    return hash;
}

OpKey
make_key(OpTag tag, std::vector<std::uint64_t> material)
{
    OpKey key;
    key.tag = static_cast<std::uint64_t>(tag);
    key.material = std::move(material);
    key.digest = fnv1a_words(key.material.data(), key.material.size(),
                             fnv1a_words(&key.tag, 1));
    return key;
}

struct OpCache::Shard
{
    struct Entry
    {
        OpKey key;
        std::shared_ptr<const OpValue> value;
        std::uint64_t checksum = 0;
        std::size_t bytes = 0;
    };

    std::mutex mutex;
    /** Front = most recently used. */
    std::list<Entry> lru;
    /** digest -> every entry with that digest (collision chains are
     * expected: the digest is a router, not the identity). */
    std::unordered_map<std::uint64_t,
                       std::vector<std::list<Entry>::iterator>>
        index;
    /** Mutated only under this shard's mutex; atomic so the gauge
     * publisher can sum all shards without taking their locks. */
    std::atomic<std::size_t> bytes{0};
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::uint64_t collisions = 0;
};

struct OpCache::Impl
{
    std::size_t max_bytes;
    std::size_t shard_budget;
    std::atomic<bool> enabled;
    std::vector<std::unique_ptr<Shard>> shards;

    metrics::Counter& hits;
    metrics::Counter& misses;
    metrics::Counter& evictions;
    metrics::Counter& inserts;
    metrics::Counter& collisions;
    metrics::Gauge& bytes_gauge;

    Impl(std::size_t max, bool on, unsigned nshards,
         const std::string& prefix)
        : max_bytes(max),
          shard_budget(std::max<std::size_t>(1, max / nshards)),
          enabled(on),
          hits(metrics::counter(prefix + ".hits")),
          misses(metrics::counter(prefix + ".misses")),
          evictions(metrics::counter(prefix + ".evictions")),
          inserts(metrics::counter(prefix + ".inserts")),
          collisions(metrics::counter(prefix + ".collisions")),
          bytes_gauge(metrics::gauge(prefix + ".bytes"))
    {
        shards.reserve(nshards);
        for (unsigned i = 0; i < nshards; ++i)
            shards.push_back(std::make_unique<Shard>());
    }

    Shard&
    shard_of(std::uint64_t digest)
    {
        // The digest's low bits route the bucket within a shard's
        // unordered_map; mix the high bits into the shard choice so
        // both decisions don't consume the same entropy.
        return *shards[(digest >> 48) % shards.size()];
    }

    void
    publish_bytes()
    {
        std::int64_t total = 0;
        for (const auto& shard : shards)
            total += static_cast<std::int64_t>(
                shard->bytes.load(std::memory_order_relaxed));
        bytes_gauge.set(total);
    }
};

OpCache::OpCache(std::size_t max_bytes, bool enabled, unsigned shards,
                 std::string metrics_prefix)
    : impl_(std::make_unique<Impl>(max_bytes, enabled,
                                   std::max(1u, shards),
                                   metrics_prefix))
{
}

OpCache::~OpCache() = default;

bool
OpCache::enabled() const
{
    return impl_->enabled.load(std::memory_order_relaxed);
}

void
OpCache::set_enabled(bool on)
{
    impl_->enabled.store(on, std::memory_order_relaxed);
}

std::size_t
OpCache::max_bytes() const
{
    return impl_->max_bytes;
}

std::shared_ptr<const OpValue>
OpCache::lookup(const OpKey& key)
{
    if (!enabled())
        return nullptr;
    Shard& shard = impl_->shard_of(key.digest);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto bucket = shard.index.find(key.digest);
    if (bucket != shard.index.end()) {
        for (const auto& it : bucket->second) {
            if (it->key.tag != key.tag ||
                it->key.material != key.material) {
                // Digest matched, material did not: a real collision.
                // Count it and keep scanning — serving this entry
                // would change a result.
                ++shard.collisions;
                impl_->collisions.add();
                continue;
            }
            if (value_checksum(*it->value) != it->checksum)
                throw Error(ErrorCode::Internal,
                            "opcache: cached payload mutated after "
                            "insert (immutability contract violated)");
            shard.lru.splice(shard.lru.begin(), shard.lru, it);
            ++shard.hits;
            impl_->hits.add();
            trace::Span span("opcache.hit", "opcache");
            return it->value;
        }
    }
    ++shard.misses;
    impl_->misses.add();
    trace::Span span("opcache.miss", "opcache");
    return nullptr;
}

void
OpCache::insert(OpKey key, OpValue value)
{
    if (!enabled())
        return;
    auto shared = std::make_shared<const OpValue>(std::move(value));
    const std::size_t entry_bytes =
        key.bytes() + shared->bytes() + kEntryOverhead;
    Shard& shard = impl_->shard_of(key.digest);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (entry_bytes > impl_->shard_budget)
            return; // would evict the whole shard for one entry
        auto& bucket = shard.index[key.digest];
        for (auto& it : bucket) {
            if (it->key.tag == key.tag &&
                it->key.material == key.material) {
                // Replace in place (e.g. a reciprocal recomputed at
                // larger extra supersedes the narrower one).
                shard.bytes -= it->bytes;
                it->value = std::move(shared);
                it->checksum = value_checksum(*it->value);
                it->bytes = entry_bytes;
                shard.bytes += entry_bytes;
                shard.lru.splice(shard.lru.begin(), shard.lru, it);
                ++shard.inserts;
                impl_->inserts.add();
                evict_locked(shard);
                impl_->publish_bytes();
                return;
            }
        }
        Shard::Entry entry;
        entry.key = std::move(key);
        entry.checksum = value_checksum(*shared);
        entry.value = std::move(shared);
        entry.bytes = entry_bytes;
        shard.lru.push_front(std::move(entry));
        bucket.push_back(shard.lru.begin());
        shard.bytes += entry_bytes;
        ++shard.inserts;
        impl_->inserts.add();
        evict_locked(shard);
    }
    impl_->publish_bytes();
}

void
OpCache::clear()
{
    for (auto& shard : impl_->shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->lru.clear();
        shard->index.clear();
        shard->bytes = 0;
    }
    impl_->publish_bytes();
}

OpCacheStats
OpCache::stats() const
{
    OpCacheStats stats;
    for (auto& shard : impl_->shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        stats.hits += shard->hits;
        stats.misses += shard->misses;
        stats.evictions += shard->evictions;
        stats.inserts += shard->inserts;
        stats.collisions += shard->collisions;
        stats.bytes += shard->bytes;
        stats.entries += shard->lru.size();
    }
    return stats;
}

void
OpCache::evict_locked(Shard& shard)
{
    while (shard.bytes > impl_->shard_budget && !shard.lru.empty()) {
        auto victim = std::prev(shard.lru.end());
        auto bucket = shard.index.find(victim->key.digest);
        CAMP_ASSERT(bucket != shard.index.end());
        auto& chain = bucket->second;
        chain.erase(std::find(chain.begin(), chain.end(), victim));
        if (chain.empty())
            shard.index.erase(bucket);
        shard.bytes -= victim->bytes;
        shard.lru.erase(victim);
        ++shard.evictions;
        impl_->evictions.add();
    }
}

OpCache&
OpCache::global()
{
    static OpCache cache(env_max_bytes(), env_enabled(), 8, "opcache");
    return cache;
}

bool
OpCache::env_enabled()
{
    return env_flag("CAMP_OPCACHE", true);
}

std::size_t
OpCache::env_max_bytes()
{
    return static_cast<std::size_t>(env_positive_u64(
        "CAMP_OPCACHE_BYTES", 32ull * 1024 * 1024));
}

} // namespace camp::support
