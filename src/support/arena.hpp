/**
 * @file
 * LimbArena: a size-classed free-list allocator for limb buffers — the
 * memory plane under the exec layer's wave flow. WaveBuffer segments
 * and the thread-local ScratchArena's bump blocks both come from here,
 * so steady-state wave dispatch recycles a fixed set of blocks and
 * allocates nothing from the system.
 *
 * Design (DESIGN.md §14):
 *  - Sizes round up to power-of-two *size classes* between
 *    kMinClassWords (64 B) and kMaxClassWords (2 MiB); larger requests
 *    go straight to the system allocator ("oversize") and are returned
 *    to it on release.
 *  - Each class keeps one free list of 64-byte-aligned blocks under
 *    the arena's mutex: alloc pops it, or else takes a fresh block
 *    from the system; release, from any thread, pushes the block back.
 *  - An optional byte budget (CAMP_ARENA_MAX_BYTES) bounds the bytes
 *    held from the system, live plus free-listed; a request that would
 *    exceed it throws camp::ResourceExhausted *before* any state
 *    mutates.
 *
 * Lifetime safety: under AddressSanitizer every free-listed block is
 * poisoned and only unpoisoned while handed out, so a use-after-release
 * of an arena-backed view is a hard ASan failure, not silent
 * corruption — the property the memory-plane test harness leans on
 * (tests/test_memory_plane.cpp, the CI arena-poisoning leg).
 */
#ifndef CAMP_SUPPORT_ARENA_HPP
#define CAMP_SUPPORT_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace camp::support {

/** Manual ASan poisoning helpers: no-ops outside ASan builds. Exposed
 * so arena clients that sub-carve blocks (exec::WaveBuffer) can keep
 * released *regions* of a live block poisoned too. */
void asan_poison(const void* ptr, std::size_t bytes);
void asan_unpoison(const void* ptr, std::size_t bytes);
/** True when the process is ASan-instrumented (tests use this to know
 * whether poisoning assertions are meaningful). */
bool asan_active();

/** Arena construction knobs (env surface: CAMP_ARENA_MAX_BYTES). */
struct ArenaOptions
{
    /** Budget over the bytes held from the system (live plus
     * free-listed); 0 = unbounded. A request that would exceed it
     * throws camp::ResourceExhausted. */
    std::size_t max_bytes = 0;

    /** Publish arena.* metrics into the global registry (the process
     * arena does; private test arenas keep quiet). */
    bool publish_metrics = false;
};

/** ArenaOptions from CAMP_ARENA_MAX_BYTES (throws
 * camp::InvalidArgument naming it on junk, an empty value or
 * overflow). */
ArenaOptions arena_options_from_env();

/** Point-in-time accounting snapshot (monotonic counters unless
 * noted). */
struct ArenaStats
{
    std::uint64_t allocs = 0;          ///< blocks handed out
    std::uint64_t releases = 0;        ///< blocks returned
    std::uint64_t free_list_hits = 0;  ///< allocs served by a free list
    std::uint64_t oversize_allocs = 0; ///< beyond-class system allocs
    std::uint64_t live_bytes = 0;      ///< handed out right now (gauge)
    std::uint64_t high_water_bytes = 0;///< max of live_bytes
    std::uint64_t held_bytes = 0;      ///< live + free-listed (gauge)
};

class LimbArena
{
  public:
    /** Smallest block: 8 limbs = one 64-byte cache line. */
    static constexpr std::size_t kMinClassWords = 8;
    /** Largest free-listed block: 2^18 limbs = 2 MiB; above it
     * requests pass through to the system allocator. */
    static constexpr std::size_t kMaxClassWords =
        std::size_t{1} << 18;

    explicit LimbArena(ArenaOptions options = {});
    /** Frees the free-listed blocks. Every block must have been
     * released: one still out would dangle (asserted). */
    ~LimbArena();

    LimbArena(const LimbArena&) = delete;
    LimbArena& operator=(const LimbArena&) = delete;

    /** Process-wide arena configured from the environment; leaked on
     * purpose so TLS destructors may release into it at thread exit. */
    static LimbArena& global();

    /**
     * A block of at least @p words limbs, 64-byte aligned,
     * uninitialized. Pass the same @p words to release(). Throws
     * camp::ResourceExhausted when the byte budget cannot cover it
     * (arena state is untouched in that case); @p words == 0 is
     * served from the smallest class.
     */
    std::uint64_t* alloc(std::size_t words);

    /** Return @p ptr, from alloc(@p words) on any thread. */
    void release(std::uint64_t* ptr, std::size_t words);

    /** Capacity actually backing a @p words request (its size class;
     * == @p words above kMaxClassWords). */
    static std::size_t size_class_words(std::size_t words);

    ArenaStats stats() const;

    const ArenaOptions& options() const { return options_; }

  private:
    static constexpr std::size_t kClassCount = 16;
    static_assert(kMaxClassWords >> (kClassCount - 1) == kMinClassWords);

    const ArenaOptions options_;
    mutable std::mutex mutex_;
    std::vector<std::uint64_t*> free_[kClassCount]; // guarded by mutex_
    ArenaStats stats_;                              // guarded by mutex_
};

} // namespace camp::support

#endif // CAMP_SUPPORT_ARENA_HPP
