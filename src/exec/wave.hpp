/**
 * @file
 * WaveBuffer: arena-backed storage owning every operand and result of
 * one coalesced wave — the ownership half of the zero-copy dispatch
 * path (DESIGN.md §14). Whoever forms a wave owns its buffer and copies
 * each operand into it exactly once: SubmitQueue into its fill side,
 * the serve engine into the pooled buffer of the wave it dispatches.
 * From there the wave flows through ShardedScheduler and
 * Device::mul_batch_wave (exec::run_wave) as item indices plus
 * mpn::LimbView spans, and devices write products straight into the
 * wave's preallocated result slots. Steady-state pooled dispatch
 * (reset() between waves) touches the system allocator zero times.
 *
 * Lifetime rules (the view-validity contract):
 *  - add() may only be called between construction/reset() and the
 *    first dispatch of the wave, from one thread at a time.
 *  - Views returned by operand_a/operand_b/result are valid until the
 *    buffer is reset(), release()d, or destroyed; escaping limbs
 *    beyond that requires take_result()/to_natural() (a deep copy).
 *  - Concurrent writers (shard wave tasks) may fill result slots of
 *    *disjoint* items; no other concurrent mutation is allowed.
 *  - reset() keeps the arena blocks for the next wave (pooled reuse)
 *    and, under ASan, re-poisons the whole extent — a stale view into
 *    a recycled wave faults instead of reading the next wave's data.
 */
#ifndef CAMP_EXEC_WAVE_HPP
#define CAMP_EXEC_WAVE_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mpn/natural.hpp"
#include "mpn/view.hpp"
#include "support/arena.hpp"

namespace camp::exec {

class WaveBuffer
{
  public:
    /** Storage comes from @p arena (default: the process arena). The
     * arena must outlive the buffer. */
    explicit WaveBuffer(
        support::LimbArena& arena = support::LimbArena::global());

    ~WaveBuffer();

    WaveBuffer(const WaveBuffer&) = delete;
    WaveBuffer& operator=(const WaveBuffer&) = delete;

    /**
     * Append one product's storage: copies @p a and @p b into the wave
     * and reserves the full (an + bn)-limb result slot eagerly, so
     * executing the wave later performs no allocation and concurrent
     * result writers never mutate shared bookkeeping. Returns the item
     * index.
     */
    std::size_t add(const mpn::Natural& a, const mpn::Natural& b);

    /** Items added since the last reset(). */
    std::size_t size() const { return items_.size(); }

    mpn::LimbView
    operand_a(std::size_t i) const
    {
        return {items_[i].a, items_[i].an};
    }

    mpn::LimbView
    operand_b(std::size_t i) const
    {
        return {items_[i].b, items_[i].bn};
    }

    /** Owning copies of both operands (fault recovery, differential
     * tests — the sanctioned escape hatch). */
    std::pair<mpn::Natural, mpn::Natural>
    operand_pair(std::size_t i) const
    {
        return {operand_a(i).to_natural(), operand_b(i).to_natural()};
    }

    /** Writable result slot of item @p i (null when either operand is
     * zero — the product needs no storage). Capacity is
     * result_capacity(i); devices fill it then call
     * set_result_size(). */
    mpn::Limb* result_ptr(std::size_t i) { return items_[i].r; }

    /** an + bn for nonzero operands, else 0. */
    std::size_t
    result_capacity(std::size_t i) const
    {
        return items_[i].r_cap;
    }

    /**
     * Publish item @p i's product as the low @p used limbs of its
     * result slot, trimming high zero limbs (devices may hand the full
     * an + bn extent whose top limb can be zero). Disjoint items may
     * be published from concurrent threads.
     */
    void set_result_size(std::size_t i, std::size_t used);

    /**
     * Publish @p product (a copy) as item @p i's result. An exact
     * product always fits the an + bn slot; only a product the device
     * already flagged @p faulty may overflow it, and that one is
     * clamped to the slot (corrupted values carry no contractual
     * content). Disjoint items may be published concurrently.
     */
    void set_result(std::size_t i, const mpn::Natural& product,
                    bool faulty = false);

    /** The published product (valid after set_result_size). */
    mpn::LimbView
    result(std::size_t i) const
    {
        return {items_[i].r, items_[i].r_len};
    }

    /** Owning copy of the published product — the delivery edge where
     * limbs leave the wave's lifetime. */
    mpn::Natural
    take_result(std::size_t i) const
    {
        return result(i).to_natural();
    }

    /** Forget all items but keep the arena blocks for the next wave;
     * every outstanding view is invalidated (and poisoned under
     * ASan). */
    void reset();

    /** reset() plus return every arena block; the buffer is reusable
     * and will re-acquire on the next add(). */
    void release();

    /** Bumped by every reset()/release(); lets tests pin down which
     * wave a view belonged to. */
    std::uint64_t generation() const { return generation_; }

    /** Total arena words currently held (tests). */
    std::size_t capacity_words() const;

  private:
    struct Item
    {
        const mpn::Limb* a = nullptr;
        std::size_t an = 0;
        const mpn::Limb* b = nullptr;
        std::size_t bn = 0;
        mpn::Limb* r = nullptr;
        std::size_t r_cap = 0;
        std::size_t r_len = 0;
    };

    /** One arena block; pointers into it are stable because segments
     * are never reallocated, only appended. */
    struct Segment
    {
        mpn::Limb* ptr = nullptr;
        std::size_t capacity = 0;
        std::size_t used = 0;
    };

    static constexpr std::size_t kFirstSegmentWords = std::size_t{1}
                                                      << 12;

    mpn::Limb* carve(std::size_t words);

    support::LimbArena& arena_;
    std::vector<Segment> segments_;
    std::size_t cursor_ = 0; ///< segment currently carved from
    std::vector<Item> items_;
    std::uint64_t generation_ = 0;
};

/**
 * The host fork rule (DESIGN.md §8): the number of slices a forked run
 * of @p items of @p wave may use, at most @p max_slices. Each slice
 * must carry kForkChunkWork of the wave's schoolbook work (the sum of
 * an·bn over the items, in limb-products: one 64×64-bit multiply
 * each) to repay its pool round trip. Below two, run the wave on the
 * calling thread.
 */
std::size_t fork_slices(const WaveBuffer& wave,
                        const std::vector<std::size_t>& items,
                        std::size_t max_slices);

/**
 * Limb-products of work one forked slice must carry to repay its pool
 * round trip (submit, wake, steal, join). perf_smoke's wave_fork_*
 * rows measure both sides of it.
 */
inline constexpr std::uint64_t kForkChunkWork = std::uint64_t{1} << 15;

} // namespace camp::exec

#endif // CAMP_EXEC_WAVE_HPP
