/**
 * @file
 * CheckedDevice: the golden-model self-checking decorator. Wraps any
 * Device and cross-checks a sampled fraction of its base products
 * against the mpn golden model; on mismatch it records a diagnostic,
 * retries on the wrapped device within a bounded budget, then serves
 * the exact CPU product (graceful degradation, PR-1 policy). Factoring
 * the policy out of mpapca::Runtime lets any backend — and any future
 * one — opt into the same recovery path by composition.
 */
#ifndef CAMP_EXEC_CHECKED_HPP
#define CAMP_EXEC_CHECKED_HPP

#include <functional>
#include <memory>
#include <string>

#include "exec/device.hpp"
#include "support/rng.hpp"

namespace camp::exec {

/**
 * Golden-model self-checking policy for hardware base products.
 * sample_rate < 1 trades coverage for check overhead (see
 * bench/ablation_fault.cpp for the measured trade-off).
 */
struct CheckPolicy
{
    bool enabled = false;
    double sample_rate = 1.0;  ///< fraction of base products checked
    unsigned retry_budget = 2; ///< device retries before CPU fallback
    std::uint64_t seed = 0x5e1fc4ecull; ///< sampling RNG seed
};

/** Cumulative recovery counters (never reset; consumers that need
 * interval counts — Runtime's ledger — fold deltas). */
struct CheckStats
{
    std::uint64_t checks = 0;    ///< products cross-checked
    std::uint64_t detected = 0;  ///< mismatches observed (incl. retries)
    std::uint64_t retried = 0;   ///< device retries issued
    std::uint64_t fallbacks = 0; ///< products served by the CPU path
};

class CheckedDevice : public Device
{
  public:
    /** Sink for human-readable mismatch diagnostics (the Runtime wires
     * this to Ledger::record_fault_diagnostic). */
    using DiagnosticSink = std::function<void(const std::string&)>;

    CheckedDevice(std::unique_ptr<Device> inner, CheckPolicy policy);

    const char* name() const override { return inner_->name(); }
    DeviceKind kind() const override { return inner_->kind(); }
    std::uint64_t base_cap_bits() const override
    {
        return inner_->base_cap_bits();
    }

    /** Tuning is a property of the wrapped device. */
    const mpn::MulTuning& tuning() const override
    {
        return inner_->tuning();
    }
    void set_tuning(const mpn::MulTuning& tuning) override
    {
        inner_->set_tuning(tuning);
    }

    /** One checked base product: execute on the wrapped device, then
     * (for a sampled fraction) cross-check against the exact mpn
     * product, retrying within the budget and finally falling back to
     * the golden result. The returned outcome accumulates the injected
     * faults of every attempt, so ledger accounting stays exact. */
    MulOutcome mul(const mpn::Natural& a,
                   const mpn::Natural& b) override;

    /** Waves forward unchecked: BatchEngine validates per product
     * when armed and reports mismatches in BatchResult::faulty; the
     * recovery policy for batch work stays with the caller (the
     * sharded scheduler redistributes; see also
     * Runtime::multiply_batch). */
    sim::BatchResult
    mul_batch_wave(WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) override;

    CostEstimate cost(std::uint64_t bits_a,
                      std::uint64_t bits_b) const override;

    const CheckPolicy& policy() const { return policy_; }
    const CheckStats& stats() const { return stats_; }
    Device& inner() { return *inner_; }
    const Device& inner() const { return *inner_; }

    void set_diagnostic_sink(DiagnosticSink sink)
    {
        sink_ = std::move(sink);
    }

  private:
    std::unique_ptr<Device> inner_;
    CheckPolicy policy_;
    CheckStats stats_;
    Rng rng_;
    DiagnosticSink sink_;
};

} // namespace camp::exec

#endif // CAMP_EXEC_CHECKED_HPP
