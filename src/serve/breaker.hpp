/**
 * @file
 * BreakerDevice: a fault-isolating circuit breaker composed around any
 * exec::Device. It watches the device's failure signals — thrown
 * batches and detected-faulty products — and quarantines a sick device
 * behind the exact CPU path instead of letting every wave keep paying
 * for it:
 *
 *   Closed ----(open_threshold consecutive failures)----> Open
 *   Open   ----(probe_after fallback products)----------> HalfOpen
 *   HalfOpen --(probe wave clean)-----------------------> Closed
 *   HalfOpen --(probe wave fails)-----------------------> Open
 *
 * While Open, every product is served by the golden mpn path (exact by
 * construction), so traffic stays correct throughout the quarantine.
 * Failures seen while Closed are still *reported* to the caller
 * (throws re-thrown typed, faulty flags preserved) — recovery of an
 * individual product is the server's retry policy; the breaker's job
 * is isolating the device once failures persist.
 */
#ifndef CAMP_SERVE_BREAKER_HPP
#define CAMP_SERVE_BREAKER_HPP

#include <memory>
#include <mutex>

#include "exec/device.hpp"
#include "serve/config.hpp"
#include "support/clock.hpp"

namespace camp::serve {

enum class BreakerState
{
    Closed,   ///< traffic flows to the device
    Open,     ///< device quarantined; CPU serves everything
    HalfOpen, ///< next wave probes the device
};

const char* breaker_state_name(BreakerState state);

/** Cumulative breaker accounting (never reset). */
struct BreakerStats
{
    std::uint64_t failures = 0; ///< failure events observed
    std::uint64_t opens = 0;    ///< Closed/HalfOpen -> Open transitions
    std::uint64_t closes = 0;   ///< successful probe recoveries
    std::uint64_t probes = 0;   ///< HalfOpen waves sent to the device
    std::uint64_t fallback_products = 0; ///< served by CPU while Open
    std::uint64_t inner_products = 0;    ///< served by the device
    /** Clock stamp of the latest state transition (0 until the first
     * one, or always 0 when no clock was attached). */
    std::uint64_t last_transition_us = 0;
    /** Total time spent quarantined (Open), on the attached clock —
     * virtual microseconds when the server shares its VirtualClock,
     * real ones on a WallClock. Zero without a clock. */
    support::Clock::duration open_total{0};
};

class BreakerDevice : public exec::Device
{
  public:
    /** @p clock, when given (not owned; must outlive the breaker),
     * timestamps state transitions and accumulates Open residency in
     * BreakerStats — share the server's clock (Server::clock()) to get
     * quarantine durations in serving time. The state machine itself
     * stays count-driven either way. */
    BreakerDevice(std::unique_ptr<exec::Device> inner,
                  BreakerPolicy policy,
                  const support::Clock* clock = nullptr);

    const char* name() const override { return inner_->name(); }
    exec::DeviceKind kind() const override { return inner_->kind(); }
    std::uint64_t base_cap_bits() const override
    {
        return inner_->base_cap_bits();
    }

    const mpn::MulTuning& tuning() const override
    {
        return inner_->tuning();
    }
    void set_tuning(const mpn::MulTuning& tuning) override
    {
        inner_->set_tuning(tuning);
    }

    /** One product, golden-checked: a wrong or throwing device answer
     * counts as a failure event and the exact product is served
     * regardless (single products are cheap enough to check always —
     * batch traffic relies on the device's own validation flags). */
    exec::MulOutcome mul(const mpn::Natural& a,
                         const mpn::Natural& b) override;

    /** Closed/HalfOpen: forwarded to the wrapped device's wave path
     * (a HalfOpen wave is the probe). Open: the golden products are
     * written straight into the items' wave slots. */
    sim::BatchResult
    mul_batch_wave(exec::WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) override;

    /** Cost comes from the wrapped device regardless of state, so a
     * virtual-time plan stays stable across quarantine episodes. */
    exec::CostEstimate cost(std::uint64_t bits_a,
                            std::uint64_t bits_b) const override;

    BreakerState state() const;
    BreakerStats stats() const;
    const BreakerPolicy& policy() const { return policy_; }
    exec::Device& inner() { return *inner_; }

  private:
    void transition_locked(BreakerState next);
    void record_failures_locked(std::uint64_t events);
    void record_success_locked();

    std::unique_ptr<exec::Device> inner_;
    BreakerPolicy policy_;
    const support::Clock* clock_; ///< optional transition timestamps
    mutable std::mutex mutex_;
    BreakerState state_ = BreakerState::Closed;
    unsigned consecutive_failures_ = 0;
    std::uint64_t fallback_since_open_ = 0;
    BreakerStats stats_;
};

} // namespace camp::serve

#endif // CAMP_SERVE_BREAKER_HPP
