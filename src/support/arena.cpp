#include "support/arena.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <string>

#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/errors.hpp"
#include "support/metrics.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CAMP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAMP_ASAN 1
#endif
#endif

#if defined(CAMP_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace camp::support {

void
asan_poison(const void* ptr, std::size_t bytes)
{
#if defined(CAMP_ASAN)
    __asan_poison_memory_region(ptr, bytes);
#else
    (void)ptr;
    (void)bytes;
#endif
}

void
asan_unpoison(const void* ptr, std::size_t bytes)
{
#if defined(CAMP_ASAN)
    __asan_unpoison_memory_region(ptr, bytes);
#else
    (void)ptr;
    (void)bytes;
#endif
}

bool
asan_active()
{
#if defined(CAMP_ASAN)
    return true;
#else
    return false;
#endif
}

namespace {

constexpr std::size_t kBlockAlign = 64;

/** Free-list index of a size class (a power of two in range). */
std::size_t
class_index(std::size_t class_words)
{
    return static_cast<std::size_t>(
        std::countr_zero(class_words) -
        std::countr_zero(LimbArena::kMinClassWords));
}

/** The process arena's mirrors in the metrics registry. */
struct ArenaMetrics
{
    metrics::Counter& allocs = metrics::counter("arena.alloc.count");
    metrics::Counter& releases = metrics::counter("arena.release.count");
    metrics::Counter& free_list_hits =
        metrics::counter("arena.free_list.hits");
    metrics::Gauge& live_bytes = metrics::gauge("arena.live_bytes");
    metrics::Gauge& high_water_bytes =
        metrics::gauge("arena.high_water_bytes");
    metrics::Gauge& held_bytes = metrics::gauge("arena.held_bytes");

    void
    mirror(const ArenaStats& stats)
    {
        live_bytes.set(static_cast<std::int64_t>(stats.live_bytes));
        high_water_bytes.set(
            static_cast<std::int64_t>(stats.high_water_bytes));
        held_bytes.set(static_cast<std::int64_t>(stats.held_bytes));
    }
};

ArenaMetrics&
arena_metrics()
{
    static ArenaMetrics m;
    return m;
}

} // namespace

LimbArena::LimbArena(ArenaOptions options) : options_(options) {}

LimbArena::~LimbArena()
{
    CAMP_ASSERT_MSG(stats_.live_bytes == 0,
                    "LimbArena destroyed with blocks still out");
    for (std::size_t cls = 0; cls < kClassCount; ++cls)
        for (std::uint64_t* ptr : free_[cls]) {
            // ASan requires freed ranges to be addressable again.
            asan_unpoison(ptr, (kMinClassWords << cls) *
                                   sizeof(std::uint64_t));
            ::operator delete(ptr, std::align_val_t(kBlockAlign));
        }
}

LimbArena&
LimbArena::global()
{
    // Leaked on purpose: ScratchArena's TLS destructor releases its
    // blocks at thread exit, possibly after static destruction begins.
    static LimbArena* arena = [] {
        ArenaOptions options = arena_options_from_env();
        options.publish_metrics = true;
        return new LimbArena(options);
    }();
    return *arena;
}

std::size_t
LimbArena::size_class_words(std::size_t words)
{
    if (words > kMaxClassWords)
        return words;
    return std::max(kMinClassWords, std::bit_ceil(words));
}

std::uint64_t*
LimbArena::alloc(std::size_t words)
{
    const std::size_t cap = size_class_words(words);
    const std::size_t bytes = cap * sizeof(std::uint64_t);
    const bool oversize = cap > kMaxClassWords;
    std::uint64_t* ptr = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::uint64_t*>* list =
            oversize ? nullptr : &free_[class_index(cap)];
        const bool hit = list != nullptr && !list->empty();
        if (hit) {
            ptr = list->back();
            list->pop_back();
            ++stats_.free_list_hits;
        } else {
            if (options_.max_bytes != 0 &&
                stats_.held_bytes + bytes > options_.max_bytes)
                throw camp::ResourceExhausted(
                    "LimbArena: block of " + std::to_string(bytes) +
                    " bytes would exceed CAMP_ARENA_MAX_BYTES=" +
                    std::to_string(options_.max_bytes) +
                    " (the arena holds " +
                    std::to_string(stats_.held_bytes) + " bytes)");
            ptr = static_cast<std::uint64_t*>(
                ::operator new(bytes, std::align_val_t(kBlockAlign)));
            stats_.held_bytes += bytes;
            stats_.oversize_allocs += oversize;
        }
        ++stats_.allocs;
        stats_.live_bytes += bytes;
        stats_.high_water_bytes =
            std::max(stats_.high_water_bytes, stats_.live_bytes);
        if (options_.publish_metrics) {
            ArenaMetrics& m = arena_metrics();
            m.allocs.add();
            if (hit)
                m.free_list_hits.add();
            m.mirror(stats_);
        }
    }
    asan_unpoison(ptr, bytes);
    return ptr;
}

void
LimbArena::release(std::uint64_t* ptr, std::size_t words)
{
    if (ptr == nullptr)
        return;
    const std::size_t cap = size_class_words(words);
    const std::size_t bytes = cap * sizeof(std::uint64_t);
    const bool oversize = cap > kMaxClassWords;
    if (!oversize)
        asan_poison(ptr, bytes);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CAMP_ASSERT(stats_.live_bytes >= bytes);
        ++stats_.releases;
        stats_.live_bytes -= bytes;
        if (oversize)
            stats_.held_bytes -= bytes;
        else
            free_[class_index(cap)].push_back(ptr);
        if (options_.publish_metrics) {
            ArenaMetrics& m = arena_metrics();
            m.releases.add();
            m.mirror(stats_);
        }
    }
    if (oversize)
        ::operator delete(ptr, std::align_val_t(kBlockAlign));
}

ArenaStats
LimbArena::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

ArenaOptions
arena_options_from_env()
{
    ArenaOptions options;
    options.max_bytes = static_cast<std::size_t>(
        env_nonnegative_u64("CAMP_ARENA_MAX_BYTES", 0));
    return options;
}

} // namespace camp::support
