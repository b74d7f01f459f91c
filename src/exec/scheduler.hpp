/**
 * @file
 * ShardedScheduler: a Device that fans one logical wave out across
 * several independent device instances ("shards") — the multi-chip
 * deployment the paper's batch formulation (§V-B3, Fig. 13) scales to.
 * Each wave is split into per-shard sub-batches balanced by the
 * devices' own cost estimates (greedy LPT — longest processing time
 * first — not round-robin), the sub-batches execute concurrently on
 * the global thread pool, and a bounded number of waves may be in
 * flight at once so upstream submitters feel backpressure instead of
 * unbounded queueing.
 *
 * Determinism contract (the property tests/test_scheduler.cpp fuzzes):
 * products are bit-identical for every shard count, including under
 * armed fault injection. The key is seeding — every product's fault
 * stream is derived from its *wave-global* index, which the wave's
 * `indices` carry down through Device::mul_batch_wave to every shard,
 * so repartitioning a wave never moves a product onto a different
 * fault stream. Detected-faulty products are
 * *redistributed*: recomputed exactly on a surviving peer shard's
 * self-checking mul path (PR-1 policy: golden check, bounded retries,
 * CPU fallback), or on the host CPU when no exact-capable peer is
 * alive — so the returned products are exact regardless of placement.
 *
 * Failure protocol: a shard whose wave share throws, or whose wave
 * produced at least `drain_fault_threshold` faulty products (i.e. its
 * CheckedDevice keeps burning its retry budget), is *drained* — marked
 * dead and excluded from subsequent waves; its work redistributes to
 * the survivors. The last alive shard is never drained: per-product
 * recovery and the CPU fallback keep results exact even on one sick
 * shard.
 *
 * Observability: per-shard counters `exec.shard.<i>.{products, waves,
 * cycles, redistributed}`, scheduler-level `exec.scheduler.{waves,
 * products, redistributed, cpu_fallbacks, drains}` plus the
 * `exec.scheduler.inflight` high-water gauge, and trace spans
 * "exec.scheduler.wave" / "exec.shard.wave" (the latter carries a
 * "shard" argument so tools/trace_report can render per-shard wave
 * imbalance).
 */
#ifndef CAMP_EXEC_SCHEDULER_HPP
#define CAMP_EXEC_SCHEDULER_HPP

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/checked.hpp"
#include "exec/device.hpp"
#include "sim/config.hpp"

namespace camp::exec {

/**
 * Scheduler configuration. The registry's "sharded" backend builds it
 * from the environment (shard_policy_from_env): CAMP_SHARDS instances
 * of the CAMP_SHARD_BACKENDS registry names (comma list, recycled;
 * default "sim"), CAMP_SHARD_INFLIGHT bounding in-flight waves.
 */
struct ShardPolicy
{
    unsigned shards = 1; ///< device instances (>= 1)

    /** Registry names instantiated round-robin ("sim", "cpu", ...);
     * empty = all "sim". "sharded" itself is rejected (recursion). */
    std::vector<std::string> backends;

    /** Per-shard CheckedDevice policy. The SimConfig constructor
     * auto-enables full-sampling checking when the config arms fault
     * injection (same policy as mpapca::Runtime). */
    CheckPolicy check;

    /** Waves concurrently in flight before submitters block (>= 1). */
    unsigned max_inflight_waves = 2;

    /** Faulty products in one wave that drain the shard; 0 = never
     * drain (differential tests use 0 so every shard count executes
     * the same shard set). */
    std::uint64_t drain_fault_threshold = 1;
};

/** ShardPolicy from CAMP_SHARDS / CAMP_SHARD_BACKENDS /
 * CAMP_SHARD_INFLIGHT (throws camp::InvalidArgument on junk). */
ShardPolicy shard_policy_from_env();

/** Per-shard lifetime counters (one scheduler instance). */
struct ShardStats
{
    std::uint64_t products = 0; ///< products executed on this shard
    std::uint64_t waves = 0;    ///< waves this shard took part in
    std::uint64_t redistributed = 0; ///< products moved off this shard
    bool drained = false;            ///< excluded from future waves
};

/** Scheduler-wide lifetime counters (one scheduler instance). */
struct SchedulerStats
{
    std::uint64_t waves = 0;
    std::uint64_t products = 0;
    std::uint64_t redistributed = 0; ///< sum of per-shard redistributed
    std::uint64_t cpu_fallbacks = 0; ///< recoveries served by host CPU
    std::uint64_t drains = 0;        ///< shards drained
};

class ShardedScheduler : public Device
{
  public:
    /** Build `policy.shards` devices from the registry (backends list
     * recycled) for @p config and wrap each in a CheckedDevice. */
    ShardedScheduler(const sim::SimConfig& config, ShardPolicy policy);

    /** Adopt pre-built shards (tests, heterogeneous deployments);
     * each device is wrapped in a CheckedDevice with policy.check. */
    ShardedScheduler(std::vector<std::unique_ptr<Device>> devices,
                     ShardPolicy policy);

    const char* name() const override { return "sharded"; }

    /** Accelerator if any shard is an accelerator, else Model if any
     * shard is modelled, else Host. */
    DeviceKind kind() const override;

    /** Most conservative shard capability: the minimum nonzero
     * base_cap_bits over shards (0 when every shard is unlimited), so
     * anything the scheduler accepts fits every shard and LPT is free
     * to place work anywhere. */
    std::uint64_t base_cap_bits() const override
    {
        return cap_bits_;
    }

    /** One base product on the cheapest alive shard (per the shard's
     * own cost estimate); a throwing shard is drained and the op moves
     * to the next-best survivor, then to the host CPU. */
    MulOutcome mul(const mpn::Natural& a,
                   const mpn::Natural& b) override;

    /**
     * One wave: the LPT partition is computed from the wave's operand
     * views, each shard receives its item subset of the *same*
     * WaveBuffer together with the items' wave-global fault-seed
     * indices (per-shard staging lists live in recycled wave-slot
     * storage, so steady state the scheduler allocates nothing per
     * wave), and shards write products straight into the wave's
     * disjoint result slots. Recovered products (drained shards,
     * detected-faulty products) are published into the wave before
     * returning. Aggregate cycles/waves are the max over the
     * concurrent shards (they run in parallel); tasks, bytes,
     * injected, and faulty are sums; parallelism reports the number of
     * shards the wave actually used. per_product entries keep each
     * product's deterministic accounting — including the faulty flag
     * of a product that was detected and then recovered exactly.
     */
    sim::BatchResult
    mul_batch_wave(WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) override;

    /** Cheapest alive shard's estimate for this shape. */
    CostEstimate cost(std::uint64_t bits_a,
                      std::uint64_t bits_b) const override;

    const ShardPolicy& policy() const { return policy_; }
    std::size_t shard_count() const { return shards_.size(); }
    std::size_t alive_count() const;
    bool shard_alive(std::size_t i) const;
    CheckedDevice& shard(std::size_t i) { return *shards_[i]->device; }
    const CheckedDevice& shard(std::size_t i) const
    {
        return *shards_[i]->device;
    }

    ShardStats shard_stats(std::size_t i) const;
    SchedulerStats stats() const;

    /** Aggregate golden-check counters over every shard's
     * CheckedDevice (cumulative; Runtime folds deltas). */
    CheckStats check_stats() const;

    /** Forwarded to every shard's CheckedDevice. */
    void set_diagnostic_sink(CheckedDevice::DiagnosticSink sink);

    /**
     * Greedy LPT assignment, exposed for unit tests. @p weights is
     * indexed [shard][item]; items are placed in descending order of
     * their heaviest-shard weight onto the shard with the earliest
     * finish time (load + this item's weight there), ties resolving to
     * the lower item index / shard ordinal — fully deterministic.
     * Returns per-shard item index lists, each ascending.
     */
    static std::vector<std::vector<std::size_t>>
    lpt_assign(const std::vector<std::vector<double>>& weights);

  private:
    struct ShardMetrics;

    /**
     * Concurrency note: the wave entry point of every shipped device
     * is self-contained per call (fresh engine state, atomic
     * metrics), so wave tasks enter it without shard-level locking.
     * Only the stateful mul path (SimDevice's persistent core,
     * CheckedDevice's sampling RNG and counters) is serialized by
     * `mutex` — and mul is never submitted to the pool, so a helping
     * worker can never steal a task that re-locks a mutex it already
     * holds.
     */
    struct Shard
    {
        std::unique_ptr<CheckedDevice> device;
        std::mutex mutex; ///< serializes the stateful mul path
        bool alive = true;
        ShardStats stats;
        ShardMetrics* metrics = nullptr;
    };

    /** Process-global per-ordinal metric handles
     * (`exec.shard.<ordinal>.*`). */
    static ShardMetrics& metrics_for(std::size_t ordinal);

    /**
     * Per-wave-slot staging storage: the per-shard item/index lists of
     * the wave occupying the slot. Slots recycle through free_slots_,
     * so after warm-up the lists' capacity is reused wave over wave —
     * the max_inflight_waves-deep (default: double-buffered) per-shard
     * storage of the zero-copy dispatch path.
     */
    struct WaveStaging
    {
        std::vector<std::vector<std::size_t>> items;
        std::vector<std::vector<std::uint64_t>> indices;
    };

    void init(std::vector<std::unique_ptr<Device>> devices);

    std::vector<std::size_t> alive_shards() const;
    void drain_shard(std::size_t i, const char* why);

    /** Blocks until a wave slot frees up (backpressure), then claims
     * it. Every slot id < policy_.max_inflight_waves. */
    unsigned acquire_wave_slot();
    void release_wave_slot(unsigned slot);

    /** Exact recovery of one product detected faulty on shard
     * @p from: the next alive exact-capable peer's checked mul, else
     * the host CPU. Returns the exact product; recovery-attempt fault
     * injections accumulate into @p injected. */
    mpn::Natural recover_product(std::size_t from,
                                 const mpn::Natural& a,
                                 const mpn::Natural& b,
                                 std::uint64_t& injected);

    /** Throws camp::InvalidArgument when an operand of @p bits exceeds
     * the scheduler's base capability (mul and the wave path). */
    void check_operand_bits(std::uint64_t bits) const;

    ShardPolicy policy_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint64_t cap_bits_ = 0;

    mutable std::mutex state_mutex_; ///< alive flags + stats
    SchedulerStats stats_;

    std::mutex wave_mutex_; ///< backpressure + slot free list
    std::condition_variable wave_cv_;
    std::vector<unsigned> free_slots_;  ///< available wave-slot ids
    std::vector<WaveStaging> staging_;  ///< indexed by wave-slot id
};

} // namespace camp::exec

#endif // CAMP_EXEC_SCHEDULER_HPP
