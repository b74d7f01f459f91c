#include "serve/breaker.hpp"

#include <utility>

#include "exec/wave.hpp"
#include "support/assert.hpp"
#include "support/errors.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace camp::serve {

using mpn::Natural;

namespace {

namespace metrics = support::metrics;

struct BreakerMetrics
{
    metrics::Counter* failures;
    metrics::Counter* opens;
    metrics::Counter* closes;
    metrics::Counter* probes;
    metrics::Counter* fallbacks;
};

BreakerMetrics&
breaker_metrics()
{
    static BreakerMetrics* m = [] {
        auto* bm = new BreakerMetrics;
        bm->failures = &metrics::counter("serve.breaker.failures");
        bm->opens = &metrics::counter("serve.breaker.opens");
        bm->closes = &metrics::counter("serve.breaker.closes");
        bm->probes = &metrics::counter("serve.breaker.probes");
        bm->fallbacks = &metrics::counter("serve.breaker.fallbacks");
        return bm;
    }();
    return *m;
}

} // namespace

const char*
breaker_state_name(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
    }
    return "unknown";
}

BreakerDevice::BreakerDevice(std::unique_ptr<exec::Device> inner,
                             BreakerPolicy policy,
                             const support::Clock* clock)
    : inner_(std::move(inner)), policy_(policy), clock_(clock)
{
    CAMP_ASSERT(inner_ != nullptr);
    if (policy_.open_threshold == 0)
        throw InvalidArgument("breaker open_threshold must be >= 1");
    if (policy_.probe_after == 0)
        throw InvalidArgument("breaker probe_after must be >= 1");
    tuning_ = inner_->tuning();
}

BreakerState
BreakerDevice::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

BreakerStats
BreakerDevice::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
BreakerDevice::transition_locked(BreakerState next)
{
    if (state_ == next)
        return;
    support::trace::Span span("serve.breaker.transition", "serve");
    span.arg("from", static_cast<double>(state_));
    span.arg("to", static_cast<double>(next));
    if (clock_ != nullptr) {
        const std::uint64_t now_us = clock_->now_us();
        if (state_ == BreakerState::Open)
            stats_.open_total += support::Clock::duration(
                now_us - stats_.last_transition_us);
        stats_.last_transition_us = now_us;
    }
    if (next == BreakerState::Open) {
        ++stats_.opens;
        breaker_metrics().opens->add();
        fallback_since_open_ = 0;
    } else if (next == BreakerState::Closed) {
        ++stats_.closes;
        breaker_metrics().closes->add();
    }
    consecutive_failures_ = 0;
    state_ = next;
}

void
BreakerDevice::record_failures_locked(std::uint64_t events)
{
    CAMP_ASSERT(events > 0);
    stats_.failures += events;
    breaker_metrics().failures->add(events);
    if (state_ == BreakerState::HalfOpen) {
        // Failed probe: straight back to quarantine.
        transition_locked(BreakerState::Open);
        return;
    }
    consecutive_failures_ +=
        static_cast<unsigned>(std::min<std::uint64_t>(
            events, policy_.open_threshold));
    if (consecutive_failures_ >= policy_.open_threshold)
        transition_locked(BreakerState::Open);
}

void
BreakerDevice::record_success_locked()
{
    consecutive_failures_ = 0;
    if (state_ == BreakerState::HalfOpen)
        transition_locked(BreakerState::Closed);
}

exec::MulOutcome
BreakerDevice::mul(const Natural& a, const Natural& b)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state_ == BreakerState::Open) {
            ++stats_.fallback_products;
            breaker_metrics().fallbacks->add();
            if (++fallback_since_open_ >= policy_.probe_after)
                transition_locked(BreakerState::HalfOpen);
            return exec::MulOutcome{a * b, 0};
        }
        if (state_ == BreakerState::HalfOpen) {
            ++stats_.probes;
            breaker_metrics().probes->add();
        }
    }
    exec::MulOutcome outcome;
    bool threw = false;
    try {
        outcome = inner_->mul(a, b);
    } catch (const InvalidArgument&) {
        throw; // caller error: not a device-health signal
    } catch (const std::exception&) {
        threw = true;
    }
    Natural golden = a * b;
    std::lock_guard<std::mutex> lock(mutex_);
    if (threw || outcome.product != golden) {
        record_failures_locked(1);
        ++stats_.fallback_products;
        breaker_metrics().fallbacks->add();
        return exec::MulOutcome{std::move(golden), outcome.injected};
    }
    ++stats_.inner_products;
    record_success_locked();
    return outcome;
}

sim::BatchResult
BreakerDevice::mul_batch_wave(exec::WaveBuffer& wave,
                              const std::vector<std::size_t>& items,
                              const std::vector<std::uint64_t>& indices,
                              unsigned parallelism)
{
    if (items.empty())
        return {};
    bool quarantined = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state_ == BreakerState::Open) {
            // This whole wave is served under quarantine; once enough
            // fallback products have passed, the *next* wave probes.
            quarantined = true;
            stats_.fallback_products += items.size();
            breaker_metrics().fallbacks->add(items.size());
            fallback_since_open_ += items.size();
            if (fallback_since_open_ >= policy_.probe_after)
                transition_locked(BreakerState::HalfOpen);
        } else if (state_ == BreakerState::HalfOpen) {
            ++stats_.probes;
            breaker_metrics().probes->add();
        }
    }
    sim::BatchResult result;
    if (quarantined) {
        for (const std::size_t item : items) {
            const auto [a, b] = wave.operand_pair(item);
            wave.set_result(item, a * b);
        }
        result.per_product.resize(items.size());
        return result;
    }

    try {
        result = inner_->mul_batch_wave(wave, items, indices, parallelism);
    } catch (const InvalidArgument&) {
        throw; // caller error: not a device-health signal
    } catch (const std::exception&) {
        std::lock_guard<std::mutex> lock(mutex_);
        record_failures_locked(1);
        throw; // the server's retry policy owns per-product recovery
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.inner_products += items.size();
    if (result.faulty > 0)
        record_failures_locked(result.faulty);
    else
        record_success_locked();
    return result;
}

exec::CostEstimate
BreakerDevice::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    return inner_->cost(bits_a, bits_b);
}

} // namespace camp::serve
