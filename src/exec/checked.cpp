#include "exec/checked.hpp"

#include <sstream>
#include <utility>

#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace camp::exec {

using mpn::Natural;

namespace {

struct CheckedMetrics
{
    support::metrics::Counter* checks;
    support::metrics::Counter* detected;
    support::metrics::Counter* retries;
    support::metrics::Counter* fallbacks;
};

CheckedMetrics&
checked_metrics()
{
    static CheckedMetrics* m = [] {
        namespace metrics = support::metrics;
        auto* cm = new CheckedMetrics;
        cm->checks = &metrics::counter("exec.checked.checks");
        cm->detected = &metrics::counter("exec.checked.detected");
        cm->retries = &metrics::counter("exec.checked.retries");
        cm->fallbacks = &metrics::counter("exec.checked.fallbacks");
        return cm;
    }();
    return *m;
}

} // namespace

CheckedDevice::CheckedDevice(std::unique_ptr<Device> inner,
                             CheckPolicy policy)
    : inner_(std::move(inner)), policy_(policy), rng_(policy.seed)
{
    CAMP_ASSERT(inner_ != nullptr);
}

MulOutcome
CheckedDevice::mul(const Natural& a, const Natural& b)
{
    CheckedMetrics& cm = checked_metrics();
    MulOutcome outcome = inner_->mul(a, b);
    if (!policy_.enabled)
        return outcome;
    const bool sampled = policy_.sample_rate >= 1.0 ||
                         rng_.uniform() < policy_.sample_rate;
    if (!sampled)
        return outcome;

    ++stats_.checks;
    cm.checks->add();
    const Natural golden = a * b;
    unsigned attempt = 0;
    while (outcome.product != golden) {
        ++stats_.detected;
        cm.detected->add();
        std::ostringstream diag;
        diag << "base product " << a.bits() << "x" << b.bits()
             << " bits: hardware/golden mismatch (attempt " << attempt
             << ")";
        const bool out_of_budget = attempt >= policy_.retry_budget;
        diag << (out_of_budget
                     ? "; retry budget exhausted, CPU fallback"
                     : "; retrying");
        if (sink_)
            sink_(diag.str());
        if (out_of_budget) {
            // Graceful degradation: serve the exact CPU product.
            ++stats_.fallbacks;
            cm.fallbacks->add();
            outcome.product = golden;
            break;
        }
        ++stats_.retried;
        cm.retries->add();
        ++attempt;
        MulOutcome again = inner_->mul(a, b);
        outcome.product = std::move(again.product);
        outcome.injected += again.injected;
    }
    return outcome;
}

sim::BatchResult
CheckedDevice::mul_batch_wave(WaveBuffer& wave,
                              const std::vector<std::size_t>& items,
                              const std::vector<std::uint64_t>& indices,
                              unsigned parallelism)
{
    return inner_->mul_batch_wave(wave, items, indices, parallelism);
}

CostEstimate
CheckedDevice::cost(std::uint64_t bits_a, std::uint64_t bits_b) const
{
    return inner_->cost(bits_a, bits_b);
}

} // namespace camp::exec
