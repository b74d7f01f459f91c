#include "mpapca/runtime.hpp"

#include <utility>

#include "exec/registry.hpp"
#include "exec/scheduler.hpp"
#include "profile/profiler.hpp"
#include "sim/comparators.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/opcache.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace camp::mpapca {

using mpn::Natural;

namespace {

/** Registered-once runtime counters: base-product issue rate plus the
 * cost-model-vs-measured delta (both sides in nanoseconds, summed
 * over base products, so `model_ns / measured_ns` is the aggregate
 * model calibration ratio). Recovery counters live with the checked
 * device (exec.checked.*). */
struct RuntimeMetrics
{
    support::metrics::Counter* base_products;
    support::metrics::Counter* model_ns;
    support::metrics::Counter* measured_ns;
};

RuntimeMetrics&
runtime_metrics()
{
    static RuntimeMetrics* m = [] {
        namespace metrics = support::metrics;
        auto* rm = new RuntimeMetrics;
        rm->base_products =
            &metrics::counter("mpapca.base_products");
        rm->model_ns = &metrics::counter("mpapca.model_ns");
        rm->measured_ns = &metrics::counter("mpapca.measured_ns");
        return rm;
    }();
    return *m;
}

} // namespace

Runtime::Runtime(const std::string& device_name,
                 const sim::SimConfig& config,
                 const SelfCheckPolicy& self_check)
    : config_(sim::validated(config)), model_(config_), ledger_(model_)
{
    // Armed fault injection without self-checking would silently
    // return corrupted products; default to full-coverage checking.
    // A ShardedScheduler self-checks per shard (its constructor arms
    // the same policy), so the outer wrapper stays transparent there —
    // double-checking every product would only double the golden cost.
    SelfCheckPolicy policy = self_check;
    auto inner = exec::make_device(device_name, config_);
    scheduler_ = dynamic_cast<exec::ShardedScheduler*>(inner.get());
    if (config_.faults.enabled() && !policy.enabled &&
        scheduler_ == nullptr) {
        policy.enabled = true;
        policy.sample_rate = 1.0;
    }
    device_ = std::make_unique<exec::CheckedDevice>(std::move(inner),
                                                    policy);
    device_->set_diagnostic_sink([this](const std::string& diag) {
        ledger_.record_fault_diagnostic(diag);
    });
    if (scheduler_ != nullptr)
        scheduler_->set_diagnostic_sink(
            [this](const std::string& diag) {
                ledger_.record_fault_diagnostic(diag);
            });

    cap_bits_ = device_->base_cap_bits();
    // Decomposition gates follow the device's tuning: by default the
    // seed policy (Toom-3 above six base capabilities), but a device
    // whose toom3 threshold was retuned — CAMP_<DEV>_MUL_THRESH_TOOM3
    // or set_tuning — moves the gate with it.
    toom3_engage_bits_ = 6 * cap_bits_;
    if (cap_bits_ != 0) {
        const mpn::MulTuning defaults =
            exec::retuned_for_cap(cap_bits_);
        if (device_->tuning().toom3 != defaults.toom3)
            toom3_engage_bits_ =
                static_cast<std::uint64_t>(device_->tuning().toom3) *
                mpn::kLimbBits;
    }
}

AppReport
Runtime::run(const std::string& label, const std::function<void()>& app)
{
    AppReport report;
    report.device = device_->name();
    profile::ProfileSession profile_session;
    auto& profiler = profile::Profiler::instance();

    const double cpu_power = sim::skylake_cpu().power_w;
    const support::OpCacheStats opcache_before =
        support::OpCache::global().stats();

    if (device_->kind() == exec::DeviceKind::Host) {
        app();
        report.kernel_seconds =
            profiler.seconds(profile::Category::KernelMul) +
            profiler.seconds(profile::Category::KernelAdd) +
            profiler.seconds(profile::Category::KernelShift) +
            profiler.seconds(profile::Category::LowLevelOther);
        report.host_seconds =
            profiler.total_seconds() - report.kernel_seconds;
        report.seconds = profiler.total_seconds();
        report.energy_j = report.seconds * cpu_power;
    } else {
        LedgerSession ledger_session(ledger_);
        app();
        // Kernel + low-level operators execute on the accelerator
        // (their simulated time replaces the measured CPU time); the
        // host keeps the high-level and auxiliary shares (paper §V-C).
        report.kernel_seconds = ledger_.total_seconds();
        report.host_seconds =
            profiler.seconds(profile::Category::HighLevel) +
            profiler.seconds(profile::Category::Auxiliary);
        report.seconds = report.kernel_seconds + report.host_seconds;
        report.energy_j =
            ledger_.total_energy_j() + report.host_seconds * cpu_power;
        report.faults = ledger_.fault_stats();
    }
    const support::OpCacheStats opcache_after =
        support::OpCache::global().stats();
    report.opcache_hits = opcache_after.hits - opcache_before.hits;
    report.opcache_misses =
        opcache_after.misses - opcache_before.misses;
    report.breakdown = profiler.breakdown_table(label);
    return report;
}

void
Runtime::fold_check_stats()
{
    const exec::CheckStats& now = device_->stats();
    FaultStats& stats = ledger_.fault_stats();
    stats.checks += now.checks - folded_.checks;
    stats.detected += now.detected - folded_.detected;
    stats.retried += now.retried - folded_.retried;
    stats.fallbacks += now.fallbacks - folded_.fallbacks;
    folded_ = now;
    if (scheduler_ != nullptr) {
        // The scheduler's recovery path runs through its shards' own
        // CheckedDevices (and the host CPU as last resort); fold those
        // cumulative counters as deltas too, so FaultStats stays the
        // authoritative per-run diagnostics surface.
        const exec::CheckStats shards = scheduler_->check_stats();
        stats.checks += shards.checks - folded_shards_.checks;
        stats.detected += shards.detected - folded_shards_.detected;
        stats.retried += shards.retried - folded_shards_.retried;
        stats.fallbacks +=
            shards.fallbacks - folded_shards_.fallbacks;
        folded_shards_ = shards;
        const std::uint64_t cpu = scheduler_->stats().cpu_fallbacks;
        stats.fallbacks += cpu - folded_cpu_fallbacks_;
        folded_cpu_fallbacks_ = cpu;
    }
}

Natural
Runtime::base_product(const Natural& a, const Natural& b)
{
    namespace trace = support::trace;
    RuntimeMetrics& rm = runtime_metrics();
    ++base_products_;
    rm.base_products->add();

    // Model-vs-measured calibration: the cost model's simulated-cycle
    // prediction for this shape next to the wall time the device
    // actually took (memoized model, so the lookup is cheap relative
    // to the multiply it annotates).
    const double model_cycles = model_.mul(a.bits(), b.bits()).cycles;
    trace::Span span("mpapca.base_product", "mpapca");
    span.arg("bits_a", static_cast<double>(a.bits()));
    span.arg("model_cycles", model_cycles);
    const std::uint64_t t0 = trace::now_ns();
    exec::MulOutcome outcome = device_->mul(a, b);
    rm.measured_ns->add(trace::now_ns() - t0);
    rm.model_ns->add(static_cast<std::uint64_t>(
        model_.seconds(model_cycles) * 1e9));

    ledger_.fault_stats().injected += outcome.injected;
    fold_check_stats();
    return std::move(outcome.product);
}

sim::BatchResult
Runtime::multiply_batch(
    const std::vector<std::pair<Natural, Natural>>& pairs)
{
    const unsigned parallelism =
        pairs.size() >= 2
            ? support::ThreadPool::global().executors()
            : 1;
    sim::BatchResult result =
        device_->mul_batch(pairs, parallelism);
    base_products_ += result.products.size();
    // Batch products validate per product inside the device's engine
    // (mismatches are counted, not fatal, when injection is armed —
    // see sim::BatchEngine); fold the outcome into the ledger.
    ledger_.fault_stats().injected += result.injected;
    ledger_.fault_stats().detected += result.faulty;
    if (config_.faults.enabled())
        ledger_.fault_stats().checks += result.products.size();
    // Scheduler-backed batches may have recovered faulty products on
    // peer shards; pick up those retry/fallback deltas.
    fold_check_stats();
    return result;
}

Natural
Runtime::mul_functional(const Natural& a, const Natural& b)
{
    support::trace::Span span("mpapca.mul_functional", "mpapca");
    span.arg("bits_a", static_cast<double>(a.bits()));
    span.arg("bits_b", static_cast<double>(b.bits()));
    if (a.is_zero() || b.is_zero())
        return Natural();
    const std::uint64_t cap = cap_bits_;
    // An unlimited device (the host) takes everything monolithically.
    if (cap == 0 || (a.bits() <= cap && b.bits() <= cap))
        return base_product(a, b);
    // Order so a is the wider operand.
    if (a.bits() < b.bits())
        return mul_functional(b, a);
    if (b.bits() <= cap / 2 && a.bits() > cap) {
        // Block decomposition: multiply cap-sized chunks of a by b.
        Natural result;
        const std::uint64_t chunk_bits = cap;
        const Natural mask = (Natural(1) << chunk_bits) - Natural(1);
        Natural rest = a;
        std::uint64_t offset = 0;
        while (!rest.is_zero()) {
            const Natural chunk = rest & mask;
            result += mul_functional(chunk, b) << offset;
            rest >>= chunk_bits;
            offset += chunk_bits;
        }
        return result;
    }
    if (a.bits() > toom3_engage_bits_ && 3 * b.bits() > 2 * a.bits())
        return mul_toom3_functional(a, b);
    // Karatsuba split at half the wider operand.
    const std::uint64_t half = a.bits() / 2;
    const Natural mask = (Natural(1) << half) - Natural(1);
    const Natural a0 = a & mask, a1 = a >> half;
    const Natural b0 = b & mask, b1 = b >> half;
    const Natural z0 = mul_functional(a0, b0);
    const Natural z2 = mul_functional(a1, b1);
    const Natural z1 =
        mul_functional(a0 + a1, b0 + b1) - z0 - z2;
    return (z2 << (2 * half)) + (z1 << half) + z0;
}

Natural
Runtime::mul_toom3_functional(const Natural& a, const Natural& b)
{
    // Toom-3 over the nonnegative points {0, 1, 2, 3, inf} (the same
    // construction as mpn::mul_toom, lifted to Natural so that every
    // pointwise product routes back through the executing device).
    const std::uint64_t part = (a.bits() + 2) / 3;
    const Natural mask = (Natural(1) << part) - Natural(1);
    const Natural a0 = a & mask, a1 = (a >> part) & mask,
                  a2 = a >> (2 * part);
    const Natural b0 = b & mask, b1 = (b >> part) & mask,
                  b2 = b >> (2 * part);
    auto eval = [](const Natural& c0, const Natural& c1,
                   const Natural& c2, std::uint64_t x) {
        return (c2 * Natural(x * x)) + (c1 * Natural(x)) + c0;
    };
    const Natural v0 = mul_functional(a0, b0);
    const Natural v1 = mul_functional(eval(a0, a1, a2, 1),
                                      eval(b0, b1, b2, 1));
    const Natural v2 = mul_functional(eval(a0, a1, a2, 2),
                                      eval(b0, b1, b2, 2));
    const Natural v3 = mul_functional(eval(a0, a1, a2, 3),
                                      eval(b0, b1, b2, 3));
    const Natural vinf = mul_functional(a2, b2);

    // Interpolation (all intermediates provably nonnegative):
    // t_i = v_i - c0 - i^4 c4; A = t2 - 2 t1; B = t3 - 3 t1;
    // c3 = (B - 3A)/6; c2 = (A - 6 c3)/2; c1 = t1 - c2 - c3.
    const Natural t1 = v1 - v0 - vinf;
    const Natural t2 = v2 - v0 - (vinf << 4);
    const Natural t3 = v3 - v0 - Natural(81) * vinf;
    const Natural A = t2 - (t1 << 1);
    const Natural B = t3 - Natural(3) * t1;
    auto divexact_small = [](const Natural& n, std::uint64_t d) {
        auto [q, r] = Natural::divrem(n, Natural(d));
        CAMP_ASSERT(r.is_zero());
        return q;
    };
    const Natural c3 = divexact_small(B - Natural(3) * A, 6);
    const Natural c2 = divexact_small(A - Natural(6) * c3, 2);
    const Natural c1 = t1 - c2 - c3;

    return v0 + (c1 << part) + (c2 << (2 * part)) +
           (c3 << (3 * part)) + (vinf << (4 * part));
}

} // namespace camp::mpapca
