/**
 * @file
 * The MPApca runtime library (paper §V-C and Figure 1): the layer that
 * replaces the CPU for kernel operators. It offers
 *  - device-dispatched application runs: the same application code
 *    executes on any registered exec::Device — the host backend
 *    (measured wall time) or an accelerator/model backend (kernel
 *    operators charged to the simulated accelerator, host categories
 *    measured) — this is the Fig. 13 methodology;
 *  - a functional multiplication path that really decomposes operands
 *    beyond the device's base capability in software and drives the
 *    device for every base product, validating the decomposition end
 *    to end;
 *  - golden-model self-checking by composition: every runtime device
 *    is wrapped in an exec::CheckedDevice, which cross-checks hardware
 *    base products against the mpn golden model and degrades
 *    gracefully — bounded hardware retries, then the CPU path — so
 *    mul_functional returns the exact product even with datapath fault
 *    injection armed.
 *
 * Backends are string-keyed through exec::DeviceRegistry ("cpu",
 * "sim", "analytic", plus anything registered at runtime) with the
 * CAMP_BACKEND environment default.
 */
#ifndef CAMP_MPAPCA_RUNTIME_HPP
#define CAMP_MPAPCA_RUNTIME_HPP

#include <functional>
#include <memory>
#include <string>

#include "exec/checked.hpp"
#include "exec/device.hpp"
#include "mpapca/cost_model.hpp"
#include "mpapca/ledger.hpp"
#include "mpn/natural.hpp"
#include "sim/batch.hpp"

namespace camp::exec {
class ShardedScheduler;
} // namespace camp::exec

namespace camp::mpapca {

/** Outcome of one application run. */
struct AppReport
{
    std::string device;    ///< registry name of the executing device
    double seconds = 0;    ///< end-to-end app time on this backend
    double energy_j = 0;   ///< energy model for this backend
    double host_seconds = 0;    ///< non-offloaded host share
    double kernel_seconds = 0;  ///< kernel operators (measured or sim)
    std::string breakdown;      ///< rendered profiler table
    FaultStats faults;          ///< fault/recovery counters for the run
    /** Global operand-cache (support::OpCache) activity during this
     * run, as deltas: reciprocal / Montgomery-constant reuse inside
     * the app's kernel operators. Zero when CAMP_OPCACHE=0. */
    std::uint64_t opcache_hits = 0;
    std::uint64_t opcache_misses = 0;
};

/**
 * Golden-model self-checking policy for hardware base products
 * (exec::CheckPolicy). Auto-enabled (full sampling) whenever the
 * SimConfig arms fault injection; sample_rate < 1 trades coverage for
 * check overhead (see bench/ablation_fault.cpp for the measured
 * trade-off).
 */
using SelfCheckPolicy = exec::CheckPolicy;

/** MPApca runtime. */
class Runtime
{
  public:
    /**
     * Run on a registry backend. Throws camp::ConfigError on a
     * non-buildable @p config and camp::InvalidArgument on an unknown
     * @p device_name. When @p config arms fault injection and
     * @p self_check leaves checking disabled, full-sampling
     * self-checking is switched on so mul_functional stays exact under
     * injected faults. The default backend honours CAMP_BACKEND
     * (falling back to "sim", the paper's machine).
     */
    explicit Runtime(const std::string& device_name,
                     const sim::SimConfig& config = sim::default_config(),
                     const SelfCheckPolicy& self_check = SelfCheckPolicy{});

    /** The executing device (self-checking wrapper around the registry
     * backend; inner() reaches the wrapped device). */
    exec::CheckedDevice& device() { return *device_; }
    const exec::CheckedDevice& device() const { return *device_; }

    /** Non-null when the executing device is a ShardedScheduler (the
     * "sharded" backend). The scheduler self-checks per shard, so the
     * outer wrapper stays transparent and this runtime folds the
     * scheduler's aggregate recovery counters instead. */
    exec::ShardedScheduler* scheduler() { return scheduler_; }
    const exec::ShardedScheduler* scheduler() const
    {
        return scheduler_;
    }

    const CostModel& cost_model() const { return model_; }
    const SelfCheckPolicy& self_check() const
    {
        return device_->policy();
    }

    /** Fault/recovery counters accumulated by the self-checking path
     * (reset at the start of every run()). */
    const FaultStats& fault_stats() const
    {
        return ledger_.fault_stats();
    }

    const Ledger& ledger() const { return ledger_; }

    /**
     * Run an application closure under this backend and report time,
     * energy, and the operator breakdown.
     *
     * CPU single-core busy power for the energy comparison comes from
     * Table III's SkyLake figure (see sim::skylake_cpu()).
     */
    AppReport run(const std::string& label,
                  const std::function<void()>& app);

    /**
     * Functional multiplication through the executing device: operands
     * beyond the device's base capability are decomposed in software —
     * block decomposition for skinny shapes, Toom-3 for large balanced
     * operands, Karatsuba (Toom-2) otherwise — and every base product
     * executes on the device. A device with unlimited capability (the
     * host) takes every product monolithically. Returns the exact
     * product.
     */
    mpn::Natural mul_functional(const mpn::Natural& a,
                                const mpn::Natural& b);

    /** Device base products issued by mul_functional so far. */
    std::uint64_t base_products() const { return base_products_; }

    /**
     * Multiply many independent pairs through the device's batch path
     * (sim::BatchEngine on the simulated backend). The runtime picks
     * the host-side parallelism: batches of at least two products fork
     * across the global thread pool, single products and CAMP_THREADS=1
     * runs stay serial; products are bit-identical either way. Injected
     * faults and validation mismatches are folded into the ledger's
     * FaultStats (injected / detected), keeping the PR-1 diagnostics
     * surface authoritative for batch work too.
     */
    sim::BatchResult
    multiply_batch(const std::vector<std::pair<mpn::Natural,
                                               mpn::Natural>>& pairs);

  private:
    mpn::Natural mul_toom3_functional(const mpn::Natural& a,
                                      const mpn::Natural& b);

    /** One device base product through the self-checking wrapper, with
     * model-vs-measured calibration metrics. */
    mpn::Natural base_product(const mpn::Natural& a,
                              const mpn::Natural& b);

    /** Fold the checked device's cumulative recovery counters into the
     * ledger as deltas (the ledger resets per run(), the device does
     * not). */
    void fold_check_stats();

    sim::SimConfig config_;
    CostModel model_;
    Ledger ledger_;
    std::unique_ptr<exec::CheckedDevice> device_;
    exec::ShardedScheduler* scheduler_ = nullptr; ///< borrowed view
    exec::CheckStats folded_; ///< device counters already in the ledger
    exec::CheckStats folded_shards_; ///< scheduler shard counters folded
    std::uint64_t folded_cpu_fallbacks_ = 0;
    std::uint64_t base_products_ = 0;
    std::uint64_t cap_bits_ = 0;          ///< 0 = unlimited
    std::uint64_t toom3_engage_bits_ = 0; ///< Toom-3 decomposition gate
};

} // namespace camp::mpapca

#endif // CAMP_MPAPCA_RUNTIME_HPP
